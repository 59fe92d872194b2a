/**
 * @file
 * Tests for the FullSystem assembly in every mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/expect_error.hh"
#include "common/local_server.hh"

#include "cosim/full_system.hh"
#include "gpu/gpu_model.hh"
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
    // typo is in the prefix, which no parser knows. Retired keys — the
    // wall-clock guard budgets, the network and transport fault
    // injectors' fault.* keys, the health monitor's on/off switches and
    // the retry jitter/multiplier — are reported the same way, so an
    // old command line hears that its setting no longer exists.
    for (const char *key :
         {"noc.colums", "sytem.quantum", "health.worker_timeout_ms",
          "health.timeout_scale", "fault.hang_ms", "fault.drop_every",
          "fault.transport.enabled", "fault.transport.torn_frame",
          "health.enabled", "health.conservation",
          "network.remote.retry.jitter",
          "network.remote.retry.multiplier"}) {
        Config cfg;
        cfg.set(key, 4);
        auto before = warnCount();
        FullSystem sys(cfg, smallOptions(Mode::Abstract));
        EXPECT_EQ(warnCount() - before, 1u) << key;
    }
}

TEST(FullSystem, RetiredClockPeriodIsReportedNotObeyed)
{
    // sim.clock_period built a clock domain that no component read, so
    // sim.clock_period=4 changed nothing. Retired, the key is unread:
    // FullSystem warns once, naming it, and neither the configuration
    // record nor a checkpoint's meta section carries it.
    Config cfg;
    cfg.parseArg("sim.clock_period=4");
    cfg.parseArg("sim.seed=3");
    FullSystemOptions o = FullSystemOptions::fromConfig(cfg);
    EXPECT_EQ(cfg.unreadKeysWithPrefix("sim."),
              std::vector<std::string>{"sim.clock_period"});
    std::vector<std::string> sim_keys;
    for (const config::Entry &e : config::record(o))
        if (e.key.rfind("sim.", 0) == 0)
            sim_keys.push_back(e.key);
    EXPECT_EQ(sim_keys, std::vector<std::string>{"sim.seed"});

    o.app = "lu";
    o.ops_per_core = 60;
    o.noc.columns = 4;
    o.noc.rows = 4;
    auto before = warnCount();
    testing::internal::CaptureStderr();
    FullSystem sys(cfg, o);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(warnCount() - before, 1u);
    EXPECT_NE(err.find("'sim.clock_period'"), std::string::npos) << err;
}

TEST(FullSystem, NonFiniteConfigValueIsATypedError)
{
    // A NaN passes every range check written as a comparison: an
    // unrefused abstract.ewma_alpha=nan stops the run at tick 0 as if
    // it had hit the tick limit.
    for (const char *arg :
         {"abstract.ewma_alpha=nan", "health.divergence_factor=inf",
          "remote.quantum_timeout_ms=1e999"}) {
        Config cfg;
        cfg.parseArg(arg);
        EXPECT_SIM_ERROR(FullSystemOptions::fromConfig(cfg),
                         "is not a finite number")
            << arg;
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

/** A value other than the default for every key FullSystemOptions
 *  declares, all valid together. @p socket is the remote address. */
std::map<std::string, std::string>
nonDefaultValues(const std::string &socket)
{
    return {
        {"system.mode", "monolithic"},
        {"system.app", "radix"},
        {"system.ops_per_core", "61"},
        {"system.quantum", "32"},
        {"system.feedback", "false"},
        {"system.conservative", "true"},
        {"system.engine_workers", "3"},
        {"system.parallel", "false"},
        {"network.backend", "remote"},
        {"remote.socket", socket},
        {"remote.connect_timeout_ms", "2500"},
        {"remote.quantum_timeout_ms", "0"},
        {"network.remote.ckpt_quanta", "7"},
        {"network.remote.attest_quanta", "3"},
        {"network.remote.retry.max_attempts", "5"},
        {"network.remote.retry.base_ms", "2.5"},
        {"network.remote.retry.max_ms", "80"},
        {"network.remote.retry.deadline_ms", "100"},
        {"noc.router", "deflection"},
        {"noc.columns", "2"},
        {"noc.rows", "2"},
        {"noc.topology", "torus"},
        {"noc.routing", "yx"},
        {"noc.vcs_per_vnet", "3"},
        {"noc.vc_classes", "2"},
        {"noc.buffer_depth", "8"},
        {"noc.link_latency", "2"},
        {"noc.pipeline_stages", "3"},
        {"noc.flit_bytes", "32"},
        {"kernel.simd", "scalar"},
        {"mem.block_bytes", "32"},
        {"mem.l1_sets", "32"},
        {"mem.l1_ways", "2"},
        {"mem.l1_replacement", "fifo"},
        {"mem.l1_latency", "3"},
        {"mem.dir_latency", "7"},
        {"mem.dram_latency", "400"},
        {"mem.dram_banks", "4"},
        {"mem.mshrs", "4"},
        {"mem.wb_buffer", "2"},
        {"mem.control_bytes", "16"},
        {"health.watchdog_cycles", "5000"},
        {"health.divergence_factor", "32"},
        {"health.divergence_error", "1.5"},
        {"health.checkpoint_quanta", "4"},
        {"health.recovery_quanta", "32"},
        {"health.probation_quanta", "4"},
        {"health.max_backoff", "8"},
        {"health.degrade", "false"},
        {"checkpoint.interval_quanta", "8"},
        {"checkpoint.dir", "ckpts"},
        {"checkpoint.keep", "5"},
        {"checkpoint.restore", "ckpts"},
        {"sim.seed", "2"},
        {"abstract.ewma_alpha", "0.5"},
        {"abstract.granularity", "pair"},
        {"abstract.window", "64"},
        {"abstract.contention_cap", "8"},
    };
}

/** @p base with the keys in @p changes set as they say. */
FullSystemOptions
withValues(const FullSystemOptions &base,
           const std::map<std::string, std::string> &changes)
{
    Config cfg(config::record(base));
    for (const auto &[k, v] : changes)
        cfg.set(k, v);
    return config::parse<FullSystemOptions>(cfg);
}

/** The keys of @p r, in order. */
std::vector<std::string>
keysOf(const config::Record &r)
{
    std::vector<std::string> out;
    for (const config::Entry &e : r)
        out.push_back(e.key);
    return out;
}

TEST(ConfigRecord, EveryKeyRoundTripsThroughTheRecord)
{
    FullSystemOptions o;
    auto values = nonDefaultValues("unix:/tmp/rasim-record.sock");
    o = withValues(o, values);
    config::Record rec = config::record(o);
    config::Record dflt = config::record(FullSystemOptions());
    // The table above names every declared key, and every one of them
    // is off its default: a key added without a record entry, or left
    // out of this table, fails here.
    ASSERT_EQ(keysOf(rec), keysOf(dflt));
    std::vector<std::string> listed;
    for (const auto &[k, v] : values)
        listed.push_back(k);
    std::vector<std::string> declared = keysOf(rec);
    std::sort(declared.begin(), declared.end());
    EXPECT_EQ(declared, listed);
    for (std::size_t i = 0; i < rec.size(); ++i)
        EXPECT_NE(rec[i].value, dflt[i].value) << rec[i].key;

    Config full(rec);
    EXPECT_EQ(config::record(config::parse<FullSystemOptions>(full)), rec);
    auto before = warnCount();
    full.warnUnread();
    EXPECT_EQ(warnCount(), before);

    // The one other root, no part of FullSystemOptions.
    gpu::GpuDeviceParams gp;
    gp.kernel_launch_ns = 1.25;
    gp.router_slot_ns = 2.5;
    gp.parallel_width = 64;
    gp.boundary_transfer_ns = 3.75;
    config::Record grec = config::record(gp);
    config::Record gdflt = config::record(gpu::GpuDeviceParams());
    for (std::size_t i = 0; i < grec.size(); ++i)
        EXPECT_NE(grec[i].value, gdflt[i].value) << grec[i].key;
    Config gcfg(grec);
    EXPECT_EQ(config::record(config::parse<gpu::GpuDeviceParams>(gcfg)),
              grec);
    EXPECT_TRUE(gcfg.unreadKeysWithPrefix("").empty());
}

using test::LocalServer;

TEST(FullSystem, ResumeUnderAnyOtherStateShapingValueIsANamedMismatch)
{
    // Each of these used to be accepted, then panic or silently drift
    // from the uninterrupted run: noc.vcs_per_vnet and mem.l1_sets
    // panicked inside a component restore, abstract.granularity inside
    // the table restore; noc.link_latency, mem.dram_latency,
    // system.ops_per_core and abstract.ewma_alpha finished at another
    // tick.
    LocalServer server;
    FullSystemOptions o = smallOptions(Mode::CosimCycle);
    std::string image;
    {
        FullSystem sys(Config(), o);
        sys.run(4 * o.quantum);
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
    }
    auto values = nonDefaultValues(server.address);
    // Keys a change must bring along to stay a valid configuration.
    const std::map<std::string, std::map<std::string, std::string>>
        companions = {
            {"noc.topology", {{"noc.vc_classes", "2"}}},
            {"network.backend", {{"remote.socket", server.address}}},
        };
    // The allowlist: every other key is state-shaping and swept below.
    std::vector<std::string> neutral;
    for (const config::Entry &e : config::record(FullSystemOptions()))
        if (e.neutral)
            neutral.push_back(e.key);
    std::vector<std::string> allowed = {
        "system.engine_workers", "system.parallel", "remote.socket",
        "remote.connect_timeout_ms", "remote.quantum_timeout_ms"};
    for (const char *k : {"max_attempts", "base_ms", "max_ms",
                          "deadline_ms"})
        allowed.push_back(std::string("network.remote.retry.") + k);
    for (const char *k :
         {"kernel.simd", "checkpoint.interval_quanta", "checkpoint.dir",
          "checkpoint.keep", "checkpoint.restore"})
        allowed.push_back(k);
    EXPECT_EQ(neutral, allowed);

    config::Record shaping =
        config::stateShaping(config::record(FullSystemOptions()));
    for (const config::Entry &e : shaping) {
        std::map<std::string, std::string> change = {
            {e.key, values.at(e.key)}};
        if (companions.count(e.key))
            change.insert(companions.at(e.key).begin(),
                          companions.at(e.key).end());
        FullSystem sys(Config(), withValues(o, change));
        std::string why;
        EXPECT_FALSE(sys.restoreFromBytes(image, &why)) << e.key;
        EXPECT_EQ(why, "configuration mismatch: " + e.key);
    }
}

TEST(FullSystem, ResumeUnderOtherNeutralValuesFinishesIdentically)
{
    FullSystemOptions o = smallOptions(Mode::CosimCycle);
    std::string image;
    Tick finish = 0;
    {
        FullSystem sys(Config(), o);
        sys.run(4 * o.quantum);
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
        finish = sys.run(4000000);
    }
    // Engine and SIMD choices, wall-clock budgets and checkpoint
    // paths: none of them shapes simulated state.
    FullSystem sys(Config(),
                   withValues(o, {{"system.parallel", "false"},
                                  {"system.engine_workers", "1"},
                                  {"kernel.simd", "scalar"},
                                  {"remote.quantum_timeout_ms", "0"},
                                  {"network.remote.retry.max_ms", "50"},
                                  {"checkpoint.keep", "5"}}));
    std::string why;
    ASSERT_TRUE(sys.restoreFromBytes(image, &why)) << why;
    EXPECT_EQ(sys.run(4000000), finish);
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
    EXPECT_EQ(why, "configuration mismatch: abstract.granularity");
}

TEST(FullSystem, RestoreUnderOtherEwmaAlphaIsANamedMismatch)
{
    // Same table shape, other dynamics: this used to be accepted and
    // silently drift from the uninterrupted run.
    std::string why = restoreUnderOtherTableKnobs(
        [](abstractnet::AbstractParams &a) { a.ewma_alpha = 0.5; });
    EXPECT_EQ(why, "configuration mismatch: abstract.ewma_alpha");
}

} // namespace
