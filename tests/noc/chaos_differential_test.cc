/**
 * @file
 * The chaos differential harness — the headline proof of the
 * fault-tolerance layer. A full remote co-simulation run under a
 * seeded transport fault schedule (torn frames, short reads, CRC
 * corruption, stalls, cold disconnects) must end *bit-identical* to
 * the fault-free in-process run: same deliveries in the same order
 * and same hosted-network statistics.
 * Chaos, in other words, costs retries and wall-clock but never
 * results. On top of that: same-seed chaos runs reproduce the exact
 * retry counts and backoff totals; a server killed mid-run and
 * restarted on the same address is rebuilt there from the base image
 * and journal, and the run stays bit-identical; forced faults are
 * retried transparently; and an abort is never retried.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ipc/faulty_transport.hh"
#include "ipc/nocd_server.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
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

/** The same seeded traffic as the remote-equivalence harness. */
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

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;

    /// @name Health telemetry of a chaos run (volatile under chaos,
    /// but reproducible for one seed)
    /// @{
    std::uint64_t faults = 0;
    std::uint64_t sched_ops = 0;
    /** Faults of each ipc::TransportFaultKind, by kind value. */
    std::vector<std::uint64_t> faults_by_kind;
    double retries = 0.0;
    double reconnects = 0.0;
    double backoff_ms = 0.0;
    /// @}
};

/** Ground truth: the network hosted in this process, no transport. */
template <typename Net>
RunResult
runDirect(const NocParams &p)
{
    Simulation sim;
    Net net(sim, "net", p);
    RunResult r;
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    injectTraffic(net, net.numNodes());
    for (Tick t = 1000; t <= 20000; t += 1000)
        net.advanceTo(t);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

/** A chaos schedule aggressive enough to fire through the whole run
 *  yet bounded so a deterministic retry budget always masks it. */
ipc::TransportFaultOptions
chaosPlan(std::uint64_t seed)
{
    ipc::TransportFaultOptions f;
    f.seed = seed;
    f.torn_frame = 0.04;
    f.short_read = 0.02;
    f.corrupt = 0.04;
    f.delay = 0.04;
    f.delay_ms = 0.05;
    f.stall = 0.02;
    f.stall_ms = 0.1;
    f.disconnect = 0.02;
    f.min_gap_ops = 6;
    f.max_faults = 12;
    return f;
}

/** Retry budgets for bit-reproducible chaos: no wall-clock deadline
 *  (the one nondeterministic input), tiny backoffs, generous attempt
 *  cap so a fault streak cannot shed the lineage. */
ipc::RetryOptions
chaosRetry()
{
    ipc::RetryOptions r;
    r.max_attempts = 10;
    r.backoff_base_ms = 0.05;
    r.backoff_max_ms = 0.5;
    r.deadline_ms = 0.0;
    return r;
}

/** The chaos run: the same traffic through a RemoteNetwork whose
 *  connections inject faults drawn from @p plan (none when it is
 *  empty), advanced in @p step-tick quanta.
 *  @p restart_after_quantum (if non-zero) runs @p restart at that
 *  quantum boundary — the server dies mid-run, a fresh one takes its
 *  address, and the client must rebuild the lost state there. */
RunResult
runChaos(const NocParams &p, remote::RemoteOptions ro,
         std::optional<ipc::TransportFaultOptions> plan, Tick step = 1000,
         Tick restart_after_quantum = 0,
         const std::function<void()> &restart = {})
{
    Simulation sim;
    ipc::TransportFaultSchedule sched(plan.value_or(
        ipc::TransportFaultOptions{}));
    remote::RemoteNetwork net(sim, "rnet", p, ro, nullptr,
                              plan ? ipc::clientChaos(&sched)
                                   : ipc::ChannelDecorator{});
    RunResult r;
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    injectTraffic(net, net.numNodes());
    for (Tick t = step; t <= 20000; t += step) {
        net.advanceTo(t);
        if (restart_after_quantum != 0 && t == restart_after_quantum)
            restart();
    }
    EXPECT_TRUE(net.idle());
    r.stats = [&] {
        std::vector<std::tuple<std::string, std::string, double>> rows;
        for (const ipc::StatRow &row : net.fetchRemoteStats())
            rows.emplace_back(row.path, row.sub, row.value);
        return rows;
    }();
    r.faults = sched.faults();
    r.sched_ops = sched.ops();
    for (std::size_t k = 0; k < ipc::transport_fault_kinds; ++k)
        r.faults_by_kind.push_back(
            sched.count(static_cast<ipc::TransportFaultKind>(k)));
    r.retries = net.retries.value();
    r.reconnects = net.reconnects.value();
    r.backoff_ms = net.backoffMsTotal.value();
    return r;
}

void
expectSameResults(const RunResult &chaos, const RunResult &direct,
                  const char *what)
{
    ASSERT_EQ(chaos.deliveries.size(), direct.deliveries.size())
        << what;
    for (std::size_t k = 0; k < direct.deliveries.size(); ++k)
        ASSERT_TRUE(chaos.deliveries[k] == direct.deliveries[k])
            << what << " delivery #" << k << " packet "
            << direct.deliveries[k].id;
    ASSERT_EQ(chaos.stats, direct.stats) << what;
}

class ChaosDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = "unix:/tmp/rasim-chaos-" + std::to_string(::getpid());
    }

    void
    TearDown() override
    {
        stopServer();
    }

    std::string addr() const { return base_ + ".sock"; }

    void
    startServer()
    {
        ipc::NocServerOptions opts;
        opts.address = addr();
        server_ = std::make_unique<ipc::NocServer>(opts);
        thread_ = std::thread([this] { server_->run(); });
    }

    void
    stopServer()
    {
        if (!server_)
            return;
        server_->stop();
        if (thread_.joinable())
            thread_.join();
        server_.reset();
    }

    /** The server dies and a fresh one takes its address. */
    void
    restartServer()
    {
        stopServer();
        startServer();
    }

    std::string base_;
    std::unique_ptr<ipc::NocServer> server_;
    std::thread thread_;
};

template <typename Net>
void
chaosMatchesDirect(const std::string &addr, RouterKind router)
{
    const char *model = config::nameOf(router, router_names);
    NocParams p;
    p.router = router;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect<Net>(p);
    ASSERT_EQ(direct.deliveries.size(), 600u);

    remote::RemoteOptions ro;
    ro.socket = addr;
    ro.retry = chaosRetry();
    ro.ckpt_quanta = 4; // short journals, frequent base refreshes
    RunResult chaos = runChaos(p, ro, chaosPlan(0xc4a05));

    EXPECT_GT(chaos.faults, 0u) << "the chaos plan never fired";
    EXPECT_GT(chaos.retries, 0.0);
    expectSameResults(chaos, direct, model);
}

TEST_F(ChaosDifferential, CycleRunUnderChaosIsBitIdentical)
{
    startServer();
    chaosMatchesDirect<CycleNetwork>(addr(), RouterKind::Vc);
}

TEST_F(ChaosDifferential, DeflectionRunUnderChaosIsBitIdentical)
{
    startServer();
    chaosMatchesDirect<DeflectionNetwork>(addr(), RouterKind::Deflection);
}

TEST_F(ChaosDifferential, SameSeedChaosRunsAreExactlyReproducible)
{
    startServer();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    remote::RemoteOptions ro;
    ro.socket = addr();
    ipc::TransportFaultOptions plan = chaosPlan(0x5eed);
    // Uncapped, but every fault is followed by enough clean operations
    // for a whole recovery (handshake, base image, a 4-quantum journal
    // replay and the retried exchange), so the retry budget masks any
    // fault sequence.
    plan.max_faults = 0;
    plan.min_gap_ops = 24;
    ro.retry = chaosRetry();
    ro.ckpt_quanta = 4;

    // 10-tick quanta keep the fabric exchanging for dozens of quanta,
    // about a hundred transport operations even when calm, so the
    // plan's odds (roughly one fault per eleven eligible operations)
    // fire several faults for any seed. With 1000-tick quanta a calm
    // run makes a dozen operations, and whether any of them faults is
    // down to the seed.
    constexpr Tick step = 10;
    RunResult a = runChaos(p, ro, plan, step);
    RunResult b = runChaos(p, ro, plan, step);
    EXPECT_GE(a.sched_ops, 100u);
    EXPECT_GT(a.faults, 0u);

    // Not just the simulation results: the whole failure-handling
    // trajectory — faults of each kind, transport ops, retry count,
    // backoff total — replays exactly.
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.faults_by_kind, b.faults_by_kind);
    EXPECT_EQ(a.sched_ops, b.sched_ops);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.reconnects, b.reconnects);
    EXPECT_DOUBLE_EQ(a.backoff_ms, b.backoff_ms);

    // A different seed is a different chaos trajectory (while the
    // simulation results stay identical regardless): over this many
    // faults, two independent schedules landing on the same kinds at
    // the same operation count is vanishingly unlikely.
    ipc::TransportFaultOptions other = plan;
    other.seed = plan.seed + 1;
    RunResult c = runChaos(p, ro, other, step);
    EXPECT_GT(c.faults, 0u);
    EXPECT_EQ(c.deliveries, a.deliveries);
    EXPECT_NE(std::make_tuple(c.sched_ops, c.faults_by_kind),
              std::make_tuple(a.sched_ops, a.faults_by_kind));
}

template <typename Net>
void
restartMatchesDirect(const std::string &addr, RouterKind router,
                     const std::function<void()> &restart)
{
    const char *model = config::nameOf(router, router_names);
    NocParams p;
    p.router = router;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect<Net>(p);

    remote::RemoteOptions ro;
    ro.socket = addr;
    ro.retry = chaosRetry();
    ro.ckpt_quanta = 1; // refresh the base image every quantum
    // The server dies right after the quantum at tick 2000, while the
    // fabric is still busy, and a fresh one is started on the same
    // address: the remaining 18 quanta run there, cold-opened from the
    // latest base image.
    RunResult run = runChaos(p, ro, std::nullopt, 1000, 2000, restart);

    expectSameResults(run, direct, model);
    EXPECT_GE(run.reconnects, 1.0);
}

TEST_F(ChaosDifferential, PrimaryKilledMidRunFailsOverBitIdentically)
{
    startServer();
    restartMatchesDirect<CycleNetwork>(addr(), RouterKind::Vc,
                                       [this] { restartServer(); });
}

TEST_F(ChaosDifferential,
       DeflectionPrimaryKilledMidRunFailsOverBitIdentically)
{
    startServer();
    restartMatchesDirect<DeflectionNetwork>(addr(), RouterKind::Deflection,
                                            [this] { restartServer(); });
}

TEST_F(ChaosDifferential, ForcedFaultsAreRetriedTransparently)
{
    startServer();
    NocParams p;
    p.columns = 4;
    p.rows = 4;
    Simulation sim;
    remote::RemoteOptions ro;
    ro.socket = addr();
    ro.retry = chaosRetry();
    // All probabilities zero: only the forced faults below fire.
    ipc::TransportFaultSchedule sched;
    ipc::FaultyTransport *live = nullptr;
    remote::RemoteNetwork net(sim, "rnet", p, ro, nullptr,
                              ipc::clientChaos(&sched, &live));
    ASSERT_NE(live, nullptr);

    // A cold disconnect before the quantum's send: one retry round
    // reconnects, replays and completes — the caller never notices.
    net.inject(makePacket(1, 0, 15, MsgClass::Request, 8, 10));
    live->failNextSend(ipc::TransportFaultKind::Disconnect);
    net.advanceTo(1000);
    EXPECT_EQ(net.deliveredCount(), 1u);
    EXPECT_EQ(net.retries.value(), 1.0);
    EXPECT_EQ(net.reconnects.value(), 1.0);

    // A stalled reply (Timeout kind) is just as retryable.
    net.inject(makePacket(2, 1, 14, MsgClass::Request, 8, 1500));
    live->failNextRecv(ipc::TransportFaultKind::Stall);
    net.advanceTo(2000);
    EXPECT_EQ(net.deliveredCount(), 2u);
    EXPECT_EQ(net.retries.value(), 2.0);
    EXPECT_TRUE(net.connected());
}

} // namespace
