/**
 * @file
 * Tests for the shared execution-engine layer: the forEach() coverage
 * property every engine must satisfy, pool reuse across phases,
 * exception safety (a throwing phase must neither deadlock nor poison
 * the pool), the worker-count API and its oversubscription warning.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <atomic>
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
    EXPECT_GE(ParallelEngine::defaultWorkerCount(), 1);
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

} // namespace
