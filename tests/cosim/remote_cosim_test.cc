/**
 * @file
 * Full-system acceptance tests for the out-of-process NoC backend:
 * a co-simulation with network.backend=remote is bit-identical to the
 * same run with the in-process backend, a killed server degrades the
 * run to tuned-abstract service instead of hanging it, so does a hung
 * one once its reply deadline expires, and a paired
 * cross-process checkpoint resumes to the same final state as an
 * uninterrupted run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cosim/full_system.hh"
#include "ipc/faulty_transport.hh"
#include "ipc/nocd_server.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

void
snapshotStats(const stats::Group &g,
              std::vector<std::tuple<std::string, std::string, double>>
                  &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.emplace_back(g.path() + "." + s->name(), sub, v);
    for (const stats::Group *c : g.children())
        snapshotStats(*c, out);
}

class RemoteCosim : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        addr_ = "unix:/tmp/rasim-remote-cosim-" +
                std::to_string(::getpid()) + ".sock";
        startServer();
    }

    void
    TearDown() override
    {
        stopServer();
    }

    void
    startServer(ipc::ChannelDecorator decorate = {})
    {
        ipc::NocServerOptions opts;
        opts.address = addr_;
        // Sessions with workers pool every phase: no mesh here is
        // busy enough to pass the default work rule.
        opts.pool_min_active_per_slot = 0;
        server_ =
            std::make_unique<ipc::NocServer>(opts, std::move(decorate));
        thread_ = std::thread([this] { server_->run(); });
    }

    void
    stopServer()
    {
        if (!server_)
            return;
        server_->stop();
        thread_.join();
        server_.reset();
    }

    FullSystemOptions
    smallOptions(bool remote, bool parallel = false)
    {
        FullSystemOptions o;
        o.mode = Mode::CosimCycle;
        o.app = "lu";
        o.ops_per_core = 60;
        o.quantum = 64;
        o.noc.columns = 4;
        o.noc.rows = 4;
        o.mem.l1_sets = 16;
        o.parallel = parallel;
        if (parallel)
            o.engine_workers = 2;
        if (remote) {
            o.network_backend = "remote";
            o.remote.socket = addr_;
        }
        return o;
    }

    std::string addr_;
    std::unique_ptr<ipc::NocServer> server_;
    std::thread thread_;
};

TEST_F(RemoteCosim, RemoteRunBitIdenticalToInproc)
{
    for (bool parallel : {false, true}) {
        // In-process reference.
        FullSystem ref(Config(), smallOptions(false, parallel));
        Tick ref_finish = ref.run(4000000);
        ASSERT_TRUE(ref.allCoresDone());
        std::vector<std::tuple<std::string, std::string, double>>
            ref_net_stats;
        snapshotStats(*ref.cycleNetwork(), ref_net_stats);

        // Same co-simulation, detailed fabric in the server. With
        // parallel=true the pool runs server-side.
        FullSystem sys(Config(), smallOptions(true, parallel));
        Tick finish = sys.run(4000000);
        ASSERT_TRUE(sys.allCoresDone()) << "parallel=" << parallel;

        EXPECT_EQ(finish, ref_finish) << "parallel=" << parallel;
        EXPECT_EQ(sys.packetsDelivered(), ref.packetsDelivered());
        EXPECT_DOUBLE_EQ(sys.meanPacketLatency(),
                         ref.meanPacketLatency());

        // The reciprocal feedback evolved identically on both sides
        // of the process boundary.
        EXPECT_TRUE(sys.bridge().table().identicalTo(
            ref.bridge().table()))
            << "parallel=" << parallel;
        ASSERT_NE(sys.remoteNetwork(), nullptr);

        // The hosted network's statistics tree matches the in-process
        // network's row for row, bit for bit.
        std::vector<std::tuple<std::string, std::string, double>>
            net_stats;
        for (const ipc::StatRow &row :
             sys.remoteNetwork()->fetchRemoteStats())
            net_stats.emplace_back(row.path, row.sub, row.value);
        ASSERT_EQ(net_stats.size(), ref_net_stats.size());
        for (std::size_t k = 0; k < net_stats.size(); ++k)
            EXPECT_EQ(net_stats[k], ref_net_stats[k])
                << "parallel=" << parallel << " stat "
                << std::get<0>(ref_net_stats[k]);
    }
}

TEST_F(RemoteCosim, ServerKillDegradesToTunedAbstract)
{
    Config cfg;
    cfg.set("health.recovery_quanta", 0); // stay degraded once tripped
    FullSystemOptions o = smallOptions(true);
    o.health = config::parse<HealthOptions>(cfg);
    FullSystem sys(cfg, o);

    // Kill the server under the live session: the first quantum that
    // needs it raises a Transport SimError inside the bridge, which
    // quarantines the backend and finishes the run on tuned-abstract
    // estimates — completion, not a hang.
    stopServer();
    Tick finish = sys.run(4000000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_GT(finish, 0u);
    ASSERT_NE(sys.bridge().health(), nullptr);
    EXPECT_GE(sys.bridge().health()->transportTrips.value(), 1.0);
    EXPECT_GE(sys.bridge().health()->degradations.value(), 1.0);
    EXPECT_EQ(sys.bridge().healthState(),
              QuantumBridge::HealthState::Degraded);
}

TEST_F(RemoteCosim, HungServerTripsTheReplyDeadline)
{
    // The server stops answering mid-run: a session read stalls for a
    // second, far past the client's 50 ms reply budget, and one
    // attempt per retry round leaves nothing to mask it. The reply
    // deadline is what catches a hung server.
    stopServer();
    ipc::TransportFaultOptions plan;
    plan.stall = 1.0;
    plan.stall_ms = 1000.0;
    plan.start_op = 15; // past the Hello and the first Steps
    plan.max_faults = 1;
    startServer(ipc::serverChaos(plan));

    for (bool degrade : {true, false}) {
        FullSystemOptions o = smallOptions(true);
        o.remote.quantum_timeout_ms = 50.0;
        o.remote.retry.max_attempts = 1;
        o.health.recovery_quanta = 0;
        o.health.degrade = degrade;
        FullSystem sys(Config(), o);
        if (!degrade) {
            try {
                sys.run(4000000);
                ADD_FAILURE() << "a hung server went unnoticed";
            } catch (const SimError &e) {
                EXPECT_EQ(e.kind(), ErrorKind::Timeout) << e.what();
            }
            continue;
        }
        sys.run(4000000);
        EXPECT_TRUE(sys.allCoresDone());
        const HealthMonitor *hm = sys.bridge().health();
        ASSERT_NE(hm, nullptr);
        EXPECT_GE(hm->timeoutTrips.value(), 1.0);
        EXPECT_EQ(hm->transportTrips.value(), 0.0);
        EXPECT_EQ(sys.bridge().healthState(),
                  QuantumBridge::HealthState::Degraded);
        // The server answered before it hung.
        EXPECT_GT(sys.bridge().packetsDelivered.value(), 0.0);
    }
}

TEST_F(RemoteCosim, CrossProcessCheckpointResumesIdentically)
{
    // Uninterrupted reference over the remote backend.
    Tick ref_finish = 0;
    std::uint64_t ref_delivered = 0;
    double ref_latency = 0.0;
    {
        FullSystem ref(Config(), smallOptions(true));
        ref_finish = ref.run(4000000);
        ASSERT_TRUE(ref.allCoresDone());
        ref_delivered = ref.packetsDelivered();
        ref_latency = ref.meanPacketLatency();
    }

    // Interrupted run: checkpoint mid-flight (client + paired server
    // image over the live session), tear the whole client down, then
    // resume in a fresh FullSystem and finish.
    std::string image;
    {
        FullSystem sys(Config(), smallOptions(true));
        sys.run(ref_finish / 2); // stop mid-run at the tick limit
        ASSERT_FALSE(sys.allCoresDone());
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
    }

    FullSystem resumed(Config(), smallOptions(true));
    std::string why;
    ASSERT_TRUE(resumed.restoreFromBytes(image, &why)) << why;
    Tick finish = resumed.run(4000000);
    ASSERT_TRUE(resumed.allCoresDone());

    EXPECT_EQ(finish, ref_finish);
    EXPECT_EQ(resumed.packetsDelivered(), ref_delivered);
    EXPECT_DOUBLE_EQ(resumed.meanPacketLatency(), ref_latency);
}

TEST_F(RemoteCosim, BackendMismatchedCheckpointIsRejected)
{
    std::string image;
    {
        FullSystem sys(Config(), smallOptions(true));
        sys.run(20000);
        std::ostringstream os;
        sys.saveTo(os);
        image = os.str();
    }
    // A checkpoint taken with the remote backend must not restore
    // into an in-process system (and vice versa): the archives carry
    // different network sections.
    FullSystem inproc(Config(), smallOptions(false));
    std::string why;
    EXPECT_FALSE(inproc.restoreFromBytes(image, &why));
    EXPECT_NE(why.find("configuration mismatch: network.backend"),
              std::string::npos)
        << why;
}

} // namespace
