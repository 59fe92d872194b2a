/**
 * @file
 * Tests for the shared execution-engine layer: the forEach() coverage
 * property every engine must satisfy, pool reuse across phases,
 * exception safety (a throwing phase must neither deadlock nor poison
 * the pool), a back-to-back handoff stress, the worker-count API and
 * its oversubscription warning.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel_engine.hh"
#include "sim/step_engine.hh"

namespace
{

using namespace rasim;

/** Engines under test: serial reference plus pools of varying width. */
std::vector<std::unique_ptr<StepEngine>>
allEngines()
{
    std::vector<std::unique_ptr<StepEngine>> engines;
    engines.push_back(std::make_unique<SerialEngine>());
    for (int workers : {0, 1, 3, 7})
        engines.push_back(std::make_unique<ParallelEngine>(workers));
    return engines;
}

TEST(StepEngine, ForEachVisitsEveryIndexExactlyOnce)
{
    // The coverage property everything rests on, across the range
    // sizes the networks actually dispatch (empty, single node, odd
    // remainders, larger than any partition).
    for (auto &engine : allEngines()) {
        for (std::size_t n : {0UL, 1UL, 7UL, 1024UL}) {
            std::vector<std::atomic<int>> hits(n);
            engine->forEach(n, [&](std::size_t i) {
                ASSERT_LT(i, n);
                hits[i]++;
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << engine->name() << " n=" << n << " i=" << i;
        }
    }
}

TEST(ParallelEngine, ReusableAcrossManyPhases)
{
    ParallelEngine engine(2);
    std::atomic<long> total{0};
    for (int round = 0; round < 500; ++round)
        engine.forEach(16, [&](std::size_t i) {
            total += static_cast<long>(i);
        });
    EXPECT_EQ(total.load(), 500L * (15 * 16 / 2));
    EXPECT_EQ(engine.phasesRun(), 500u);
}

TEST(ParallelEngine, WorkerCountApi)
{
    ParallelEngine engine(3);
    EXPECT_EQ(engine.numWorkers(), 3);
    ParallelEngine none(0);
    EXPECT_EQ(none.numWorkers(), 0);
}

TEST(ParallelEngine, OversubscribedPoolWarnsOnceWithoutClamping)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const int fits = hw > 1 ? static_cast<int>(hw - 1) : 0;

    std::uint64_t before = rasim::warnCount();
    ::testing::internal::CaptureStderr();
    {
        ParallelEngine engine(fits);
        EXPECT_EQ(engine.numWorkers(), fits);
    }
    std::string quiet = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rasim::warnCount(), before);
    EXPECT_EQ(quiet.find("oversubscribe"), std::string::npos);

    ::testing::internal::CaptureStderr();
    {
        ParallelEngine engine(fits + 1);
        EXPECT_EQ(engine.numWorkers(), fits + 1); // not clamped
        std::atomic<int> visits{0};
        engine.forEach(64, [&](std::size_t) { ++visits; });
        EXPECT_EQ(visits.load(), 64);
    }
    std::string loud = ::testing::internal::GetCapturedStderr();
    if (hw == 0) {
        // Unknown host size: nothing to compare against, no warning.
        EXPECT_EQ(rasim::warnCount(), before);
    } else {
        EXPECT_EQ(rasim::warnCount(), before + 1);
        EXPECT_NE(loud.find("warn: parallel engine: " +
                            std::to_string(fits + 1) +
                            " worker(s) plus the calling thread "
                            "oversubscribe"),
                  std::string::npos)
            << loud;
    }
}

TEST(ParallelEngine, NegativeWorkerCountIsFatal)
{
    EXPECT_SIM_ERROR(ParallelEngine(-1), "non-negative");
}

TEST(ParallelEngine, ExceptionFromPhasePropagatesWithoutDeadlock)
{
    // Throw from different partitions (caller-owned index 0, a
    // worker-owned high index) and at several pool widths; forEach
    // must rethrow after the barrier and the pool must stay usable.
    for (int workers : {0, 1, 3}) {
        ParallelEngine engine(workers);
        for (std::size_t bad : {0UL, 1023UL}) {
            EXPECT_THROW(
                engine.forEach(1024,
                               [bad](std::size_t i) {
                                   if (i == bad)
                                       throw std::runtime_error("boom");
                               }),
                std::runtime_error)
                << "workers=" << workers << " bad=" << bad;

            // The pool survives: the next phase covers every index.
            std::vector<std::atomic<int>> hits(1024);
            engine.forEach(1024, [&](std::size_t i) { hits[i]++; });
            for (std::size_t i = 0; i < 1024; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "workers=" << workers << " i=" << i;
        }
    }
}

TEST(ParallelEngine, ConcurrentThrowsSurfaceFirstBySlotOrder)
{
    // Every partition throws; exactly one exception must surface per
    // forEach, repeatedly, without wedging the barrier.
    ParallelEngine engine(3);
    for (int round = 0; round < 10; ++round) {
        EXPECT_THROW(engine.forEach(64,
                                    [](std::size_t) {
                                        throw std::runtime_error("all");
                                    }),
                     std::runtime_error);
    }
    std::atomic<int> count{0};
    engine.forEach(64, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 64);
}

TEST(ParallelEngine, BackToBackPhaseHandoffStress)
{
    // 10^5 phases with no gap between them, so workers mostly pick the
    // next phase up from their spin (the lock-free path): forEach and
    // forRange alternate, some phases are empty, and every thirteenth
    // throws from one or two indices. Each index is owned by one slot,
    // so a plain counter per index is race-free exactly when the pool
    // runs every index once (TSan checks the rest).
    constexpr int phases = 100000;
    constexpr std::size_t max_n = 40;
    ParallelEngine engine(2);
    std::vector<int> hits(max_n, 0);
    int thrown = 0;
    for (int p = 0; p < phases; ++p) {
        std::size_t n = p % 9 == 0 ? 0 : 1 + (p * 7) % max_n;
        bool throws = n > 0 && p % 13 == 0;
        // Two throwing indices when there is room; the lower one must
        // surface (slot order is index order).
        std::size_t bad_lo = throws ? (p / 13) % n : max_n;
        std::size_t bad_hi = throws ? n - 1 : max_n;
        auto visit = [&](std::size_t i) {
            ++hits[i];
            if (i == bad_lo || i == bad_hi)
                throw std::runtime_error(std::to_string(i));
        };
        try {
            if (p % 2 == 0) {
                engine.forEach(n, visit);
            } else {
                engine.forRange(n, [&](std::size_t b, std::size_t e) {
                    ASSERT_LE(b, e);
                    for (std::size_t i = b; i < e; ++i)
                        visit(i);
                });
            }
            ASSERT_FALSE(throws) << "phase " << p << " did not rethrow";
        } catch (const std::runtime_error &e) {
            ASSERT_TRUE(throws) << "phase " << p << ": " << e.what();
            ASSERT_EQ(std::string(e.what()), std::to_string(bad_lo))
                << "phase " << p << ": not the first exception";
            ++thrown;
        }
        for (std::size_t i = 0; i < max_n; ++i) {
            // A throwing phase abandons the rest of that slot's block.
            if (throws)
                ASSERT_LE(hits[i], 1) << "phase " << p << " i=" << i;
            else
                ASSERT_EQ(hits[i], i < n ? 1 : 0)
                    << "phase " << p << " i=" << i;
            hits[i] = 0;
        }
    }
    EXPECT_GT(thrown, phases / 20);
    EXPECT_EQ(engine.phasesRun(), static_cast<std::uint64_t>(phases));

    // Still usable after the storm.
    std::atomic<int> count{0};
    engine.forEach(64, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 64);
}

} // namespace
