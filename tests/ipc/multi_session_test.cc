/**
 * @file
 * Multi-session soak for the rasim-nocd daemon: N concurrent clients
 * co-simulating against ONE server process must each get results
 * bit-identical to a solo run of the same workload — same deliveries
 * in the same order, same remote stats tree, same shadow-tuned
 * LatencyTable — because sessions share nothing stateful. Also pins
 * the daemon's operational contracts: admission control refuses
 * connections over server.max_sessions with a typed error, oversize
 * inject batches are refused as "backpressure:" (and the session
 * survives via reconnect), and the scheduler counters export
 * sanely.
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
#include "noc/remote/remote_network.hh"
#include "sim/rng.hh"
#include "sim/sim_error.hh"
#include "sim/simulation.hh"

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

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;
    std::unique_ptr<abstractnet::LatencyTable> table;
};

NocParams
smallMesh()
{
    NocParams p;
    p.columns = 4;
    p.rows = 4;
    return p;
}

remote::RemoteOptions
clientOptions(const std::string &addr, int seat)
{
    remote::RemoteOptions ro;
    ro.socket = addr;
    ro.model = "cycle";
    // Vary the hosted engine across seats; bit-identity is per-seat
    // (solo counterpart uses the same options).
    ro.engine_workers = (seat % 2) ? 2 : 0;
    return ro;
}

/** One client's whole life against the daemon: open a session, drive
 *  seeded traffic through 16 quanta, read back stats and the tuned
 *  table. Each seat gets its own traffic seed, so concurrent sessions
 *  are never in lock-step. */
RunResult
runClient(const std::string &addr, int seat)
{
    Simulation sim;
    remote::RemoteNetwork net(sim, "rnet", smallMesh(),
                              clientOptions(addr, seat));
    RunResult r;
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    Rng rng(0x500 + static_cast<std::uint64_t>(seat), 3);
    const std::size_t nodes = net.numNodes();
    for (int i = 0; i < 200; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64, static_cast<Tick>(i / 3)));
    }
    for (Tick t = 500; t <= 8000; t += 500)
        net.advanceTo(t);
    EXPECT_TRUE(net.idle()) << "seat " << seat;
    for (const ipc::StatRow &row : net.fetchRemoteStats())
        r.stats.emplace_back(row.path, row.sub, row.value);
    r.table = std::make_unique<abstractnet::LatencyTable>(
        net.fetchTunedTable());
    return r;
}

void
expectIdentical(const RunResult &solo, const RunResult &soak, int seat)
{
    ASSERT_EQ(soak.deliveries.size(), solo.deliveries.size())
        << "seat " << seat;
    for (std::size_t k = 0; k < solo.deliveries.size(); ++k)
        ASSERT_TRUE(soak.deliveries[k] == solo.deliveries[k])
            << "seat " << seat << " delivery #" << k << " packet "
            << solo.deliveries[k].id;
    ASSERT_EQ(soak.stats, solo.stats) << "seat " << seat;
    EXPECT_TRUE(soak.table->identicalTo(*solo.table)) << "seat " << seat;
}

class MultiSession : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        addr_ = "unix:/tmp/rasim-soak-" + std::to_string(::getpid()) +
                ".sock";
    }

    void
    TearDown() override
    {
        stopServer();
    }

    void
    startServer(const ipc::NocServerOptions &base)
    {
        ipc::NocServerOptions opts = base;
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

    std::string addr_;
    std::unique_ptr<ipc::NocServer> server_;
    std::thread thread_;
};

TEST_F(MultiSession, ConcurrentSessionsBitIdenticalToSolo)
{
    constexpr int N = 5;
    startServer(ipc::NocServerOptions{});

    // Solo baselines: one session at a time, per-seat options/seed.
    std::vector<RunResult> solo(N);
    for (int seat = 0; seat < N; ++seat) {
        solo[seat] = runClient(addr_, seat);
        ASSERT_FALSE(solo[seat].deliveries.empty()) << "seat " << seat;
    }

    // Soak: the same N workloads at once. Sessions open on the main
    // thread first so all N provably coexist (the peak counter must
    // see them), then each is driven on its own thread.
    struct Seat
    {
        Simulation sim;
        remote::RemoteNetwork net;
        RunResult r;

        Seat(const std::string &addr, int seat)
            : net(sim, "rnet", smallMesh(), clientOptions(addr, seat))
        {
        }
    };
    std::vector<std::unique_ptr<Seat>> seats;
    for (int seat = 0; seat < N; ++seat)
        seats.push_back(std::make_unique<Seat>(addr_, seat));

    std::vector<std::thread> drivers;
    for (int seat = 0; seat < N; ++seat) {
        drivers.emplace_back([&, seat] {
            Seat &s = *seats[seat];
            s.net.setDeliveryHandler([&](const PacketPtr &pkt) {
                s.r.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                          pkt->latency(), pkt->hops});
            });
            Rng rng(0x500 + static_cast<std::uint64_t>(seat), 3);
            const std::size_t nodes = s.net.numNodes();
            for (int i = 0; i < 200; ++i) {
                s.net.inject(makePacket(
                    static_cast<PacketId>(i + 1),
                    static_cast<NodeId>(rng.range(nodes)),
                    static_cast<NodeId>(rng.range(nodes)),
                    static_cast<MsgClass>(rng.range(3)),
                    rng.bernoulli(0.5) ? 8 : 64,
                    static_cast<Tick>(i / 3)));
            }
            for (Tick t = 500; t <= 8000; t += 500)
                s.net.advanceTo(t);
            for (const ipc::StatRow &row : s.net.fetchRemoteStats())
                s.r.stats.emplace_back(row.path, row.sub, row.value);
            s.r.table = std::make_unique<abstractnet::LatencyTable>(
                s.net.fetchTunedTable());
        });
    }
    for (auto &t : drivers)
        t.join();

    for (int seat = 0; seat < N; ++seat)
        expectIdentical(solo[seat], seats[seat]->r, seat);
    seats.clear(); // close the sessions before reading counters

    const ipc::NocServerCounters c = server_->counters();
    EXPECT_EQ(c.sessions_served, static_cast<std::uint64_t>(2 * N));
    EXPECT_GE(c.sessions_peak, static_cast<std::uint64_t>(N));
    EXPECT_EQ(c.sessions_rejected, 0u);
    // Every run exchanged at least Hello, one busy quantum, the
    // post-elision sync, StatsGet and TableGet (most of the 16 quanta
    // are legitimately elided once the fabric drains).
    EXPECT_GE(c.frames, static_cast<std::uint64_t>(2 * N * 5));
    // Counter sanity: derived counters never exceed their base.
    EXPECT_LE(c.quota_yields, c.sched_waits);
    EXPECT_LE(c.sched_waits, c.frames);
    EXPECT_EQ(c.quota_trips, 0u);
}

TEST_F(MultiSession, AdmissionCapRefusesWithTypedErrorThenRecovers)
{
    ipc::NocServerOptions so;
    so.max_sessions = 1;
    startServer(so);

    Simulation sim_a;
    auto a = std::make_unique<remote::RemoteNetwork>(
        sim_a, "rnet", smallMesh(), clientOptions(addr_, 0));
    ASSERT_TRUE(a->connected());

    // The second concurrent session must be refused with a typed
    // error naming the condition — never a hang or a silent close.
    bool refused = false;
    try {
        Simulation sim_b;
        remote::RemoteNetwork b(sim_b, "rnet", smallMesh(),
                                clientOptions(addr_, 1));
    } catch (const SimError &e) {
        refused = true;
        EXPECT_NE(std::string(e.what()).find("capacity"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(refused);
    EXPECT_GE(server_->counters().sessions_rejected, 1u);

    // The admitted session is unharmed by the rejection.
    a->inject(makePacket(1, 0, 15, MsgClass::Request, 8, 10));
    a->advanceTo(1000);
    EXPECT_EQ(a->deliveredCount(), 1u);

    // Once the seat frees up, a new client is admitted. The server
    // reaps the finished session asynchronously, so poll briefly.
    a.reset();
    bool admitted = false;
    for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
        try {
            Simulation sim_c;
            remote::RemoteNetwork c(sim_c, "rnet", smallMesh(),
                                    clientOptions(addr_, 2));
            admitted = c.connected();
        } catch (const SimError &) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    EXPECT_TRUE(admitted);
}

TEST_F(MultiSession, OversizeBatchRefusedAsBackpressure)
{
    ipc::NocServerOptions so;
    so.max_batch_packets = 4;
    startServer(so);

    Simulation sim;
    remote::RemoteNetwork net(sim, "rnet", smallMesh(),
                              clientOptions(addr_, 0));
    for (int i = 0; i < 8; ++i)
        net.inject(makePacket(static_cast<PacketId>(i + 1), 0, 15,
                              MsgClass::Request, 8, 10));
    try {
        net.advanceTo(1000);
        FAIL() << "oversize batch was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("backpressure:"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_GE(server_->counters().quota_trips, 1u);

    // The refusal is per-batch, not fatal: the client reconnects and
    // in-quota batches flow again (the refused packets are lost with
    // the batch, by the documented buffered-injection contract).
    net.inject(makePacket(100, 0, 15, MsgClass::Request, 8, 1200));
    net.inject(makePacket(101, 5, 10, MsgClass::Response, 8, 1300));
    net.advanceTo(3000);
    EXPECT_TRUE(net.connected());
    EXPECT_EQ(net.deliveredCount(), 2u);
}

} // namespace
