/**
 * @file
 * Multi-session soak for the rasim-nocd daemon: N concurrent clients
 * co-simulating against ONE server process must each get results
 * bit-identical to a solo run of the same workload — same deliveries
 * in the same order, same remote stats tree — because sessions share
 * nothing stateful. Sessions compute on their own threads with no
 * gate between them, so the soak is also the check that ungated
 * concurrent sessions stay bit-identical.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

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
 *  seeded traffic through 16 quanta, read back the stats. Each seat
 *  gets its own traffic seed, so concurrent sessions are never in
 *  lock-step. */
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
    startServer()
    {
        ipc::NocServerOptions opts;
        opts.address = addr_;
        // Sessions with workers pool every phase: no mesh here is
        // busy enough to pass the default work rule.
        opts.pool_min_active_per_slot = 0;
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
    startServer();

    // Solo baselines: one session at a time, per-seat options/seed.
    std::vector<RunResult> solo(N);
    for (int seat = 0; seat < N; ++seat) {
        solo[seat] = runClient(addr_, seat);
        ASSERT_FALSE(solo[seat].deliveries.empty()) << "seat " << seat;
    }

    // Soak: the same N workloads at once. Sessions open on the main
    // thread first so all N provably coexist, then each is driven on
    // its own thread.
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
        });
    }
    for (auto &t : drivers)
        t.join();

    for (int seat = 0; seat < N; ++seat)
        expectIdentical(solo[seat], seats[seat]->r, seat);
    EXPECT_EQ(server_->sessionsServed(),
              static_cast<std::uint64_t>(2 * N));
}

} // namespace
