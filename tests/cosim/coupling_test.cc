/**
 * @file
 * Full-system tests contrasting the two bridge couplings and the
 * engine configurations — the integration-level properties E5/E4
 * build on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cosim/full_system.hh"
#include "sim/logging.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

FullSystemOptions
opts(Mode mode, Tick quantum, bool conservative)
{
    FullSystemOptions o;
    o.mode = mode;
    o.app = "fft";
    o.ops_per_core = 80;
    o.quantum = quantum;
    o.conservative = conservative;
    o.noc.columns = 4;
    o.noc.rows = 4;
    o.mem.l1_sets = 16;
    return o;
}

double
relErr(double x, double ref)
{
    return std::abs(x - ref) / ref;
}

TEST(Coupling, ConservativeQuantumOneMatchesMonolithic)
{
    FullSystem mono(Config(), opts(Mode::Monolithic, 1, false));
    Tick a = mono.run();
    FullSystem cons(Config(), opts(Mode::CosimCycle, 1, true));
    Tick b = cons.run();
    EXPECT_EQ(a, b);
    EXPECT_DOUBLE_EQ(mono.meanPacketLatency(),
                     cons.meanPacketLatency());
}

TEST(Coupling, ConservativeDegradesWithQuantum)
{
    FullSystem ref(Config(), opts(Mode::Monolithic, 1, false));
    double ref_rt = static_cast<double>(ref.run());
    FullSystem small_q(Config(), opts(Mode::CosimCycle, 16, true));
    double rt16 = static_cast<double>(small_q.run());
    FullSystem big_q(Config(), opts(Mode::CosimCycle, 512, true));
    double rt512 = static_cast<double>(big_q.run());
    EXPECT_GT(relErr(rt512, ref_rt), relErr(rt16, ref_rt));
    EXPECT_GT(rt512, 2.0 * ref_rt); // RTT rounding blows runtime up
}

TEST(Coupling, ReciprocalHoldsAccuracyAtHugeQuantum)
{
    FullSystem ref(Config(), opts(Mode::Monolithic, 1, false));
    double ref_rt = static_cast<double>(ref.run());
    double ref_lat = ref.meanPacketLatency();
    FullSystem rec(Config(), opts(Mode::CosimCycle, 1024, false));
    double rt = static_cast<double>(rec.run());
    EXPECT_LT(relErr(rt, ref_rt), 0.1);
    EXPECT_LT(relErr(rec.meanPacketLatency(), ref_lat), 0.1);
}

TEST(Coupling, ReciprocalSystemNeverWaitsOnDetailedModel)
{
    // With reciprocal coupling the estimate answers immediately, so
    // boundary slack never shows up in system-visible latencies even
    // at large quanta: the bridge's estimate-error stays small.
    FullSystem rec(Config(), opts(Mode::CosimCycle, 512, false));
    rec.run();
    EXPECT_GT(rec.bridge().estimateError.count(), 0u);
    EXPECT_LT(std::abs(rec.bridge().estimateError.mean()), 5.0);
}

TEST(Coupling, EngineWorkerCountDoesNotChangeResults)
{
    Tick base = 0;
    for (int workers : {1, 2, 4}) {
        FullSystemOptions o = opts(Mode::CosimGpu, 64, false);
        o.engine_workers = workers;
        FullSystem sys(Config(), o);
        Tick rt = sys.run();
        if (!base)
            base = rt;
        EXPECT_EQ(rt, base) << "workers=" << workers;
    }
}

TEST(Coupling, OverlappedPoolRunsAreDeterministic)
{
    // Reciprocal + overlap coupling with the pool engine is the full
    // parallel configuration; the determinism contract demands that
    // repeated runs with the same seed — and runs with different
    // worker counts — agree bit for bit on the feedback-side
    // distributions and the tuned latency-table state.
    auto run = [](int workers) {
        FullSystemOptions o = opts(Mode::CosimGpu, 64, false);
        o.engine_workers = workers;
        FullSystem sys(Config(), o);
        Tick rt = sys.run();
        std::ostringstream table;
        sys.bridge().table().save(table);
        return std::make_tuple(rt, sys.packetsDelivered(),
                               sys.bridge().estimateError.values(),
                               sys.bridge().deliverySlack.values(),
                               table.str());
    };

    auto ref = run(2);
    EXPECT_GT(std::get<1>(ref), 0u);
    // Same seed, same worker count: bit-identical reruns.
    EXPECT_EQ(run(2), ref);
    // Worker count is a pure execution-placement choice.
    EXPECT_EQ(run(1), ref);
    EXPECT_EQ(run(8), ref);
}

TEST(Coupling, OverlapAddsBoundedError)
{
    FullSystem ref(Config(), opts(Mode::Monolithic, 1, false));
    ref.run();
    double ref_lat = ref.meanPacketLatency();
    FullSystem gpu(Config(), opts(Mode::CosimGpu, 128, false));
    gpu.run();
    // Overlap batches the clone stream at boundaries, which inflates
    // the detailed model's measured latency somewhat on this tiny
    // (4x4, ~30-quanta) run — bounded, not a blow-up.
    EXPECT_LT(relErr(gpu.meanPacketLatency(), ref_lat), 0.4);
}

TEST(Coupling, TickLimitWarnsAndReturns)
{
    FullSystem sys(Config(), opts(Mode::CosimCycle, 64, false));
    auto before = warnCount();
    sys.run(128); // far too short to finish
    EXPECT_FALSE(sys.allCoresDone());
    EXPECT_GT(warnCount(), before);
}

TEST(Coupling, PairGranularityConfigWorks)
{
    Config cfg;
    cfg.set("abstract.granularity", std::string("pair"));
    FullSystemOptions o = opts(Mode::CosimCycle, 128, false);
    o.abstract = config::parse<abstractnet::AbstractParams>(cfg);
    FullSystem sys(cfg, o);
    sys.run();
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_EQ(sys.bridge().table().granularity(),
              abstractnet::LatencyTable::Granularity::Pair);
    EXPECT_GT(sys.bridge().table().observations(), 0u);
}

} // namespace
