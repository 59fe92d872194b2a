/**
 * @file
 * Remote-vs-in-process differential harness: hosting the detailed
 * network in a rasim-nocd server behind the quantum-RPC transport must
 * be *bit-identical* to running the same network in-process — same
 * deliveries in the same order, same rendered statistics, and the same
 * shadow-tuned LatencyTable — for both network models, with the server
 * running its engine serially or pooled. This is the headline proof
 * that out-of-process co-simulation does not perturb results.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "abstractnet/latency_table.hh"
#include "ipc/nocd_server.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "noc/oracle/oracle.hh"
#include "noc/remote/remote_network.hh"
#include "sim/rng.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

struct Delivery
{
    PacketId id;
    Tick deliver_tick;
    Tick latency;
    std::uint32_t hops;

    bool operator==(const Delivery &o) const = default;
};

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

/** The same seeded traffic as the engine-equivalence harness. */
template <typename Net>
void
injectTraffic(Net &net, std::size_t nodes)
{
    Rng rng(0x6e7, 3);
    for (int i = 0; i < 600; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64, static_cast<Tick>(i / 3)));
    }
}

/** Advance in quanta, the way a bridge drives its backend. */
template <typename Net>
void
stepQuanta(Net &net)
{
    for (Tick t = 1000; t <= 20000; t += 1000)
        net.advanceTo(t);
}

abstractnet::LatencyTable
shadowTable(const NocParams &p)
{
    return abstractnet::LatencyTable(
        p, p.columns + p.rows + 2, 0.05,
        abstractnet::LatencyTable::Granularity::Distance, p.numNodes());
}

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;
    std::unique_ptr<abstractnet::LatencyTable> table;
};

/** Ground truth: the network hosted in this process, on the soa kernel
 *  or on the object oracle. */
template <typename Net>
RunResult
runDirect(const NocParams &p,
          oracle::Kernel kernel = oracle::Kernel::Soa)
{
    Simulation sim;
    Net net(sim, "net", p, nullptr, oracle::fabric<Net>(kernel));
    RunResult r;
    r.table =
        std::make_unique<abstractnet::LatencyTable>(shadowTable(p));
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
        r.table->observe(static_cast<int>(pkt->cls),
                         static_cast<int>(pkt->hops),
                         p.flitsPerPacket(pkt->size_bytes),
                         pkt->latency(), pkt->src, pkt->dst);
    });
    injectTraffic(net, net.numNodes());
    stepQuanta(net);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

/** The same run, with the network living in a rasim-nocd server. */
RunResult
runRemote(const NocParams &p, const std::string &addr,
          const std::string &model, int server_workers)
{
    Simulation sim;
    remote::RemoteOptions ro;
    ro.socket = addr;
    ro.model = model;
    ro.engine_workers = server_workers;
    remote::RemoteNetwork net(sim, "rnet", p, ro);
    RunResult r;
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    injectTraffic(net, net.numNodes());
    stepQuanta(net);
    EXPECT_TRUE(net.idle());
    r.stats = [&] {
        std::vector<std::tuple<std::string, std::string, double>> rows;
        for (const ipc::StatRow &row : net.fetchRemoteStats())
            rows.emplace_back(row.path, row.sub, row.value);
        return rows;
    }();
    r.table = std::make_unique<abstractnet::LatencyTable>(
        net.fetchTunedTable());
    return r;
}

class RemoteEquivalence : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        addr_ = "unix:/tmp/rasim-remote-eq-" +
                std::to_string(::getpid()) + ".sock";
        startServer();
    }

    void
    TearDown() override
    {
        stopServer();
    }

    void
    startServer()
    {
        ipc::NocServerOptions opts;
        opts.address = addr_;
        server_ = std::make_unique<ipc::NocServer>(opts);
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

    template <typename Net>
    void
    expectRemoteMatchesDirect(const std::string &model)
    {
        NocParams p;
        p.columns = 8;
        p.rows = 8;
        RunResult direct = runDirect<Net>(p);
        ASSERT_EQ(direct.deliveries.size(), 600u);

        for (int workers : {0, 4}) {
            RunResult remote =
                runRemote(p, addr_, model, workers);

            ASSERT_EQ(remote.deliveries.size(),
                      direct.deliveries.size())
                << "server workers=" << workers;
            for (std::size_t k = 0; k < direct.deliveries.size(); ++k)
                ASSERT_TRUE(remote.deliveries[k] ==
                            direct.deliveries[k])
                    << "server workers=" << workers << " delivery #"
                    << k << " packet " << direct.deliveries[k].id;

            // The hosted network's statistics tree equals the
            // in-process one row for row, bit for bit.
            ASSERT_EQ(remote.stats.size(), direct.stats.size());
            for (std::size_t k = 0; k < direct.stats.size(); ++k)
                ASSERT_EQ(remote.stats[k], direct.stats[k])
                    << "server workers=" << workers << " stat "
                    << std::get<0>(direct.stats[k]) << "."
                    << std::get<1>(direct.stats[k]);

            // The server's shadow-tuned table evolved exactly like a
            // locally tuned one: the reciprocal feedback is preserved
            // across the process boundary.
            EXPECT_TRUE(remote.table->identicalTo(*direct.table))
                << "server workers=" << workers;
        }
    }

    std::string addr_;
    std::unique_ptr<ipc::NocServer> server_;
    std::thread thread_;
};

TEST_F(RemoteEquivalence, CycleNetworkBitIdentical)
{
    expectRemoteMatchesDirect<CycleNetwork>("cycle");
}

TEST_F(RemoteEquivalence, DeflectionNetworkBitIdentical)
{
    expectRemoteMatchesDirect<DeflectionNetwork>("deflection");
}

TEST_F(RemoteEquivalence, SoaKernelHostedRemotelyBitIdentical)
{
    // The server always hosts the soa kernel. It must be
    // bit-identical to the *object oracle* running in-process:
    // deliveries, the stats tree and the shadow-tuned table — closing
    // the kernel × process-boundary equivalence square.
    NocParams p;
    p.columns = 8;
    p.rows = 8;

    auto check = [&](const std::string &model, RunResult &direct) {
        for (int workers : {0, 4}) {
            RunResult remote = runRemote(p, addr_, model, workers);
            ASSERT_EQ(remote.deliveries.size(),
                      direct.deliveries.size())
                << model << " soa workers=" << workers;
            for (std::size_t k = 0; k < direct.deliveries.size(); ++k)
                ASSERT_TRUE(remote.deliveries[k] ==
                            direct.deliveries[k])
                    << model << " soa workers=" << workers
                    << " delivery #" << k;
            ASSERT_EQ(remote.stats, direct.stats)
                << model << " soa workers=" << workers;
            EXPECT_TRUE(remote.table->identicalTo(*direct.table))
                << model << " soa workers=" << workers;
        }
    };

    RunResult cyc = runDirect<CycleNetwork>(p, oracle::Kernel::Object);
    ASSERT_EQ(cyc.deliveries.size(), 600u);
    check("cycle", cyc);

    RunResult def =
        runDirect<DeflectionNetwork>(p, oracle::Kernel::Object);
    ASSERT_EQ(def.deliveries.size(), 600u);
    check("deflection", def);
}

TEST_F(RemoteEquivalence, ServerLossSurfacesAsSimErrorThenReconnects)
{
    NocParams p;
    p.columns = 4;
    p.rows = 4;
    Simulation sim;
    remote::RemoteOptions ro;
    ro.socket = addr_;
    ro.connect_timeout_ms = 2000.0;
    remote::RemoteNetwork net(sim, "rnet", p, ro);
    EXPECT_TRUE(net.connected());

    net.inject(makePacket(1, 0, 15, MsgClass::Request, 8, 10));
    net.advanceTo(1000);
    EXPECT_EQ(net.deliveredCount(), 1u);

    // Kill the server under the live session: the next quantum must
    // fail with a typed SimError — never a hang — which is exactly
    // what the bridge's health machinery quarantines on.
    stopServer();
    net.inject(makePacket(2, 1, 14, MsgClass::Request, 8, 1500));
    bool threw = false;
    try {
        net.advanceTo(2000);
    } catch (const SimError &e) {
        threw = true;
        EXPECT_TRUE(e.kind() == ErrorKind::Transport ||
                    e.kind() == ErrorKind::Timeout)
            << e.what();
    }
    EXPECT_TRUE(threw);
    EXPECT_FALSE(net.connected());

    // A restarted server is picked up transparently: the client opens
    // a fresh session fast-forwarded to the current tick.
    startServer();
    net.inject(makePacket(3, 2, 13, MsgClass::Response, 8, 2500));
    net.advanceTo(4000);
    EXPECT_TRUE(net.connected());
    EXPECT_EQ(net.curTime(), 4000u);
    EXPECT_EQ(net.deliveredCount(), 1u); // fresh server accounting
}

TEST_F(RemoteEquivalence, ServerKilledOnBusyFabricTearsDownAndResumes)
{
    // Kill the server while its fabric still holds traffic in flight,
    // between drain-shaped quanta (empty inject batch, fabric busy).
    // Teardown must join the session worker without deadlock or
    // crash, the client must surface a typed error (not a hang), and
    // a restarted server must pick the session back up.
    NocParams p;
    p.columns = 4;
    p.rows = 4;
    Simulation sim;
    remote::RemoteOptions ro;
    ro.socket = addr_;
    ro.connect_timeout_ms = 2000.0;
    remote::RemoteNetwork net(sim, "rnet", p, ro);

    // A burst big enough that the fabric stays busy across several
    // short quanta; every advance after the first is drain-shaped.
    for (int i = 0; i < 256; ++i)
        net.inject(makePacket(static_cast<PacketId>(i + 1),
                              static_cast<NodeId>(i % 16),
                              static_cast<NodeId>((i * 7 + 3) % 16),
                              MsgClass::Request, 64, 5));
    for (Tick t = 20; t <= 100; t += 20)
        net.advanceTo(t);
    ASSERT_FALSE(net.idle()); // still draining

    // stop() + join with the hosted fabric still busy.
    stopServer();

    bool threw = false;
    try {
        net.advanceTo(120);
    } catch (const SimError &e) {
        threw = true;
        EXPECT_TRUE(e.kind() == ErrorKind::Transport ||
                    e.kind() == ErrorKind::Timeout)
            << e.what();
    }
    EXPECT_TRUE(threw);
    EXPECT_FALSE(net.connected());

    startServer();
    net.inject(makePacket(1000, 0, 15, MsgClass::Request, 8, 300));
    net.advanceTo(2000);
    EXPECT_TRUE(net.connected());
    EXPECT_EQ(net.curTime(), 2000u);
    EXPECT_TRUE(net.idle());
}

} // namespace
