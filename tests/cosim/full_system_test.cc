/**
 * @file
 * Tests for the FullSystem assembly in every mode.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>

#include "common/expect_error.hh"

#include "cosim/full_system.hh"
#include "sim/logging.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

FullSystemOptions
smallOptions(Mode mode, const std::string &app = "lu",
             std::uint64_t ops = 60)
{
    FullSystemOptions o;
    o.mode = mode;
    o.app = app;
    o.ops_per_core = ops;
    o.quantum = 64;
    o.noc.columns = 4;
    o.noc.rows = 4;
    o.mem.l1_sets = 16;
    return o;
}

TEST(FullSystem, ModeNamesRoundTrip)
{
    for (const char *name :
         {"abstract", "tuned", "cosim", "cosim-gpu", "monolithic"}) {
        EXPECT_STREQ(toString(modeFromName(name)), name);
    }
    EXPECT_SIM_ERROR(modeFromName("bogus"), "unknown mode");
}

TEST(FullSystem, OptionsFromConfig)
{
    Config cfg;
    cfg.set("system.mode", std::string("monolithic"));
    cfg.set("system.app", std::string("radix"));
    cfg.set("system.quantum", 128);
    cfg.set("noc.columns", 4);
    cfg.set("noc.rows", 2);
    cfg.set("sim.seed", 7);
    cfg.set("abstract.granularity", std::string("pair"));
    cfg.set("abstract.window", 64);
    cfg.set("abstract.contention_cap", 8.0);
    auto o = FullSystemOptions::fromConfig(cfg);
    EXPECT_EQ(o.mode, Mode::Monolithic);
    EXPECT_EQ(o.app, "radix");
    EXPECT_EQ(o.quantum, 128u);
    EXPECT_EQ(o.noc.columns, 4);
    EXPECT_EQ(o.sim.seed, 7u);
    EXPECT_EQ(o.abstract.granularity,
              abstractnet::LatencyTable::Granularity::Pair);
    EXPECT_EQ(o.abstract.window, 64u);
    EXPECT_DOUBLE_EQ(o.abstract.contention_cap, 8.0);
}

class FullSystemModes : public testing::TestWithParam<Mode>
{
};

TEST_P(FullSystemModes, RunsToCompletion)
{
    FullSystem sys(Config(), smallOptions(GetParam()));
    Tick finish = sys.run(4000000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_GT(finish, 0u);
    EXPECT_GT(sys.packetsDelivered(), 0u);
    EXPECT_GT(sys.meanPacketLatency(), 0.0);
    // Every core issued its budget.
    for (std::size_t i = 0; i < sys.numCores(); ++i)
        EXPECT_DOUBLE_EQ(sys.core(i).opsIssued.value(), 60.0);
}

// run() steps by the quantum in every mode, so zero is a config error
// everywhere, not only in the modes whose bridge exchanges at it.
TEST_P(FullSystemModes, ZeroQuantumIsConfigError)
{
    FullSystemOptions o = smallOptions(GetParam());
    o.quantum = 0;
    logging::ThrowOnError guard;
    try {
        FullSystem sys(Config(), o);
        ADD_FAILURE() << "quantum 0 was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("system.quantum"),
                  std::string::npos)
            << e.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FullSystemModes,
    testing::Values(Mode::Abstract, Mode::TunedAbstract,
                    Mode::CosimCycle, Mode::CosimGpu, Mode::Monolithic),
    [](const testing::TestParamInfo<Mode> &info) {
        std::string n = toString(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(FullSystem, MisspelledConfigKeyWarns)
{
    // A typo'd key is never read by any consumer, so assembling the
    // system flags it instead of silently ignoring it — also when the
    // typo is in the prefix, which no parser knows.
    for (const char *key : {"noc.colums", "sytem.quantum"}) {
        Config cfg;
        cfg.set(key, 4);
        auto before = warnCount();
        FullSystem sys(cfg, smallOptions(Mode::Abstract));
        EXPECT_EQ(warnCount() - before, 1u) << key;
    }
}

TEST(FullSystem, WellFormedConfigDoesNotWarn)
{
    Config cfg;
    cfg.set("system.mode", std::string("abstract"));
    cfg.set("noc.columns", 4);
    cfg.set("noc.rows", 4);
    auto o = FullSystemOptions::fromConfig(cfg);
    o.app = "lu";
    o.ops_per_core = 60;
    o.mem.l1_sets = 16;
    auto before = warnCount();
    FullSystem sys(cfg, o);
    EXPECT_EQ(warnCount() - before, 0u);
}

TEST(FullSystem, MonolithicDeterministic)
{
    auto run = [] {
        FullSystem sys(Config(), smallOptions(Mode::Monolithic));
        return sys.run(4000000);
    };
    Tick a = run();
    Tick b = run();
    EXPECT_EQ(a, b);
}

TEST(FullSystem, CosimGpuDeterministic)
{
    auto run = [] {
        FullSystem sys(Config(), smallOptions(Mode::CosimGpu));
        return sys.run(4000000);
    };
    EXPECT_EQ(run(), run());
}

TEST(FullSystem, FeedbackFillsBridgeTable)
{
    FullSystem sys(Config(), smallOptions(Mode::CosimCycle));
    sys.run(4000000);
    EXPECT_GT(sys.bridge().table().observations(), 0u);
}

TEST(FullSystem, BackendAccessorsMatchMode)
{
    FullSystem cyc(Config(), smallOptions(Mode::CosimCycle));
    EXPECT_NE(cyc.cycleNetwork(), nullptr);
    EXPECT_EQ(cyc.abstractNetwork(), nullptr);
    FullSystem abs(Config(), smallOptions(Mode::Abstract));
    EXPECT_EQ(abs.cycleNetwork(), nullptr);
    EXPECT_NE(abs.abstractNetwork(), nullptr);
}

TEST(FullSystem, WorkloadsProduceDifferentTraffic)
{
    // The presets must stress the protocol differently: write-heavy
    // hotspotting (radix) causes far more invalidations than
    // read-mostly shared data (raytrace).
    FullSystem a(Config(), smallOptions(Mode::Monolithic, "radix"));
    FullSystem b(Config(), smallOptions(Mode::Monolithic, "raytrace"));
    a.run(4000000);
    b.run(4000000);
    auto invs = [](FullSystem &sys) {
        double total = 0;
        for (NodeId n = 0; n < 16; ++n)
            total += sys.memory().directory(n).invalidationsSent.value();
        return total;
    };
    EXPECT_GT(invs(a), 2.0 * invs(b));
}

/** Checkpoint a default-knob run mid-flight, then restore that image
 *  into a system whose latency-table knobs differ as @p change says;
 *  returns the restore's rejection reason ("" if it was accepted). */
std::string
restoreUnderOtherTableKnobs(
    const std::function<void(abstractnet::AbstractParams &)> &change)
{
    FullSystemOptions o = smallOptions(Mode::CosimCycle);
    std::string image;
    {
        FullSystem sys(Config(), o);
        sys.run(4 * o.quantum);
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
    }
    change(o.abstract);
    FullSystem sys(Config(), o);
    std::string why;
    EXPECT_FALSE(sys.restoreFromBytes(image, &why));
    return why;
}

TEST(FullSystem, RestoreUnderPairGranularityIsANamedMismatch)
{
    // The saved distance table cannot be read back as a pair table:
    // this used to panic inside the table restore.
    std::string why = restoreUnderOtherTableKnobs(
        [](abstractnet::AbstractParams &a) {
            a.granularity = abstractnet::LatencyTable::Granularity::Pair;
        });
    EXPECT_NE(why.find("configuration mismatch: abstract.granularity"),
              std::string::npos)
        << why;
}

TEST(FullSystem, RestoreUnderOtherEwmaAlphaIsANamedMismatch)
{
    // Same table shape, other dynamics: this used to be accepted and
    // silently drift from the uninterrupted run.
    std::string why = restoreUnderOtherTableKnobs(
        [](abstractnet::AbstractParams &a) { a.ewma_alpha = 0.5; });
    EXPECT_NE(why.find("configuration mismatch: abstract.ewma_alpha"),
              std::string::npos)
        << why;
}

} // namespace
