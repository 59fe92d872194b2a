/**
 * @file
 * The crash-anywhere differential harness — the headline proof of the
 * self-healing layer (DESIGN.md section 13). Real rasim-nocd worker
 * processes run under the Supervisor (the library behind
 * rasim-supervisor), and the tests SIGKILL them at the nastiest
 * client-side moments: at seeded random operation indices, inside a
 * CkptSave exchange, in the middle of a journal replay, and in the
 * window between a recovery's cold open and its replay (the double
 * failure). The supervisor respawns every corpse on its old endpoint,
 * the client's recovery lineage (a cold open of the base image plus
 * journal replay, on whichever worker answers) rebuilds the pre-crash
 * state, and the run must end *bit-identical* to the fault-free
 * in-process run — deliveries, server stats tree and tuned table.
 * On top of that: a diverged replica is caught by its attestation
 * digest and quarantined instead of computed on; a primary killed
 * between quanta fails over on the next Step; and the health counters
 * (reconnects, failovers, attestation_mismatches, worker_restarts)
 * account for all of it.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "abstractnet/latency_table.hh"
#include "ipc/socket.hh"
#include "ipc/supervisor.hh"
#include "noc/cycle_network.hh"
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

constexpr Tick kQuantum = 1000;
constexpr Tick kLastLoaded = 20000; ///< last quantum fed new traffic
constexpr Tick kDrainUntil = 30000; ///< fixed drain schedule for both

/** Unlike the chaos harness (whose one-shot injection drains inside
 *  the first quantum), crash windows need the fabric busy across the
 *  whole run: every quantum gets its own seeded batch, so every
 *  quantum is a real Step exchange a kill can land on. */
template <typename Net>
void
runLoop(Net &net, const std::function<void(Tick)> &between = {})
{
    Rng rng(0x6e7c, 5);
    const std::size_t nodes = net.numNodes();
    PacketId id = 1;
    for (Tick t = kQuantum; t <= kLastLoaded; t += kQuantum) {
        for (int i = 0; i < 30; ++i) {
            net.inject(makePacket(
                id++, static_cast<NodeId>(rng.range(nodes)),
                static_cast<NodeId>(rng.range(nodes)),
                static_cast<MsgClass>(rng.range(3)),
                rng.bernoulli(0.5) ? 8 : 64,
                t - kQuantum + static_cast<Tick>(rng.range(kQuantum))));
        }
        net.advanceTo(t);
        if (between)
            between(t);
    }
    // The same fixed drain schedule on both sides, so the stats trees
    // see an identical advance sequence.
    for (Tick t = kLastLoaded + kQuantum; t <= kDrainUntil;
         t += kQuantum) {
        net.advanceTo(t);
        if (between)
            between(t);
    }
    EXPECT_TRUE(net.idle());
}

struct RunResult
{
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;
    std::unique_ptr<abstractnet::LatencyTable> table;

    /** Sessions re-opened after a loss (remote runs only). */
    double reconnects = 0.0;
};

abstractnet::LatencyTable
shadowTable(const NocParams &p)
{
    return abstractnet::LatencyTable(
        p, p.columns + p.rows + 2, 0.05,
        abstractnet::LatencyTable::Granularity::Distance, p.numNodes());
}

/** Ground truth: the network hosted in this process, no transport. */
RunResult
runDirect(const NocParams &p)
{
    Simulation sim;
    CycleNetwork net(sim, "net", p);
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
    runLoop(net);
    snapshotStats(net, r.stats);
    return r;
}

void
expectSameResults(const RunResult &crashed, const RunResult &direct,
                  const char *what)
{
    ASSERT_EQ(crashed.deliveries.size(), direct.deliveries.size())
        << what;
    for (std::size_t k = 0; k < direct.deliveries.size(); ++k)
        ASSERT_TRUE(crashed.deliveries[k] == direct.deliveries[k])
            << what << " delivery #" << k << " packet "
            << direct.deliveries[k].id;
    ASSERT_EQ(crashed.stats, direct.stats) << what;
    EXPECT_TRUE(crashed.table->identicalTo(*direct.table)) << what;
}

/** Retry budget sized for a supervisor respawn window: no wall-clock
 *  deadline, enough backed-off attempts to outlast the restart
 *  backoff, breaker off so the differential never sheds its lineage. */
ipc::RetryOptions
crashRetry()
{
    ipc::RetryOptions r;
    r.max_attempts = 60;
    r.backoff_base_ms = 5.0;
    r.backoff_multiplier = 2.0;
    r.backoff_max_ms = 50.0;
    r.jitter = 0.5;
    r.deadline_ms = 0.0;
    r.breaker_failures = 0;
    return r;
}

class CrashAnywhere : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = "/tmp/rasim-crash-" + std::to_string(::getpid());
    }

    void
    TearDown() override
    {
        stopSupervisor();
        ::unlink(registry().c_str());
    }

    std::string
    addr(int i) const
    {
        return "unix:" + base_ + "-" + std::to_string(i) + ".sock";
    }

    std::string registry() const { return base_ + ".registry"; }

    void
    startSupervisor(double backoff_base_ms = 10.0)
    {
        ipc::SupervisorOptions o;
        o.worker_cmd = {RASIM_NOCD_PATH};
        o.endpoints = {addr(0), addr(1)};
        o.registry_path = registry();
        o.restart_backoff_base_ms = backoff_base_ms;
        o.restart_backoff_max_ms = backoff_base_ms * 8;
        o.poll_ms = 5.0;
        sup_ = std::make_unique<ipc::Supervisor>(std::move(o));
        sup_->startFleet();
        sup_thread_ = std::thread([this] { sup_->run(); });
        for (std::size_t i = 0; i < sup_->workers(); ++i)
            waitConnectable(addr(static_cast<int>(i)));
    }

    void
    stopSupervisor()
    {
        if (!sup_)
            return;
        sup_->stop();
        if (sup_thread_.joinable())
            sup_thread_.join();
        sup_.reset();
    }

    /** Block until a worker answers connects on @p a (startup, or a
     *  respawn the test needs to have happened). */
    void
    waitConnectable(const std::string &a)
    {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        for (;;) {
            try {
                ipc::Fd fd = ipc::connectTo(a, 200.0);
                if (fd.valid())
                    return;
            } catch (const SimError &) {
            }
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "worker on " << a << " never became connectable";
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }

    void
    killWorker(std::size_t i)
    {
        pid_t pid = sup_->workerPid(i);
        if (pid > 0)
            ::kill(pid, SIGKILL);
    }

    /** SIGKILL the worker behind the client's live session. */
    void
    killActive(const remote::RemoteNetwork &net)
    {
        killWorker(net.activeEndpoint() == addr(0) ? 0 : 1);
    }

    remote::RemoteOptions
    remoteOpts() const
    {
        remote::RemoteOptions ro;
        ro.socket = addr(0);
        ro.endpoints = {addr(0), addr(1)};
        ro.registry = registry();
        ro.retry = crashRetry();
        ro.ckpt_quanta = 2; // short journals, frequent base refreshes
        return ro;
    }

    /** A full supervised remote run. @p arm installs the test hooks
     *  once the session is up (the constructor's own exchanges stay
     *  kill-free, so every test starts from a healthy fleet). Each
     *  quantum sleeps ~2 ms of wall clock, giving the supervisor's
     *  restart backoff room to land inside the run — pure timing, so
     *  the differential is untouched. */
    RunResult
    runSupervised(const NocParams &p, remote::RemoteOptions ro,
                  const std::function<void(remote::RemoteNetwork &)>
                      &arm = {})
    {
        Simulation sim;
        remote::RemoteNetwork net(sim, "rnet", p, ro);
        if (arm)
            arm(net);
        RunResult r;
        net.setDeliveryHandler([&](const PacketPtr &pkt) {
            r.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                    pkt->latency(), pkt->hops});
        });
        runLoop(net, [](Tick) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
        for (const ipc::StatRow &row : net.fetchRemoteStats())
            r.stats.emplace_back(row.path, row.sub, row.value);
        r.table = std::make_unique<abstractnet::LatencyTable>(
            net.fetchTunedTable());
        r.reconnects = net.reconnects.value();
        return r;
    }

    std::string base_;
    std::unique_ptr<ipc::Supervisor> sup_;
    std::thread sup_thread_;
};

TEST_F(CrashAnywhere, SeededRandomKillsEndBitIdentical)
{
    startSupervisor();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // A seeded schedule of kill points over the run's operation
    // stream; the first one takes BOTH workers down at once, so at
    // least one recovery must cold-open against a fleet that is still
    // respawning.
    std::set<std::uint64_t> kill_ops;
    Rng rng(0xc4a57, 9);
    while (kill_ops.size() < 3)
        kill_ops.insert(3 + rng.range(14));
    const std::uint64_t both_at = *kill_ops.begin();

    std::uint64_t kills = 0;
    RunResult run = runSupervised(
        p, remoteOpts(), [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_op = [&](std::uint64_t op) {
                if (!kill_ops.count(op))
                    return;
                ++kills;
                if (op == both_at) {
                    killWorker(0);
                    killWorker(1);
                } else {
                    killActive(net);
                }
            };
        });

    EXPECT_EQ(kills, kill_ops.size()) << "a kill point never fired";
    expectSameResults(run, direct, "seeded random kills");
    EXPECT_GE(run.reconnects, static_cast<double>(kill_ops.size()));
    EXPECT_GE(sup_->restarts(), kill_ops.size() + 1); // one op killed 2

    // The supervisor republished what happened: the registry the
    // client re-resolves on every cold open records the restarts.
    std::ifstream reg(registry());
    std::string header;
    std::getline(reg, header);
    EXPECT_EQ(header, "rasim-registry v1");
}

TEST_F(CrashAnywhere, KillDuringCheckpointSaveKeepsOldLineage)
{
    startSupervisor();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // The worker dies *inside* the CkptSave exchange: the base refresh
    // fails, the old (longer-journal) lineage must survive and carry
    // the recovery.
    bool killed = false;
    RunResult run = runSupervised(
        p, remoteOpts(), [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_ckpt_save = [&] {
                if (killed)
                    return;
                killed = true;
                killActive(net);
            };
        });

    EXPECT_TRUE(killed) << "no checkpoint refresh ever ran";
    expectSameResults(run, direct, "kill during CkptSave");
    EXPECT_GE(run.reconnects, 1.0);
}

TEST_F(CrashAnywhere, KillDuringJournalReplayRecoversOnAnotherReplica)
{
    startSupervisor();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // First kill forces a recovery; the second lands mid-replay, while
    // the fresh session is being fast-forwarded through the journal.
    // A longer base cadence keeps several quanta journaled, so replay
    // record #1 exists to be killed in.
    remote::RemoteOptions ro = remoteOpts();
    ro.ckpt_quanta = 4;
    int phase = 0;
    RunResult run = runSupervised(
        p, ro, [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_op = [&](std::uint64_t op) {
                if (phase == 0 && op == 7) {
                    phase = 1;
                    killActive(net);
                }
            };
            net.test_hooks.on_replay = [&](std::size_t i) {
                if (phase == 1 && i >= 1) {
                    phase = 2;
                    killActive(net);
                }
            };
        });

    EXPECT_EQ(phase, 2) << "the replay window was never hit";
    expectSameResults(run, direct, "kill during replay");
    EXPECT_GE(run.reconnects, 2.0);
}

TEST_F(CrashAnywhere, DoubleFailureAcrossTheFailoverWindow)
{
    startSupervisor();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // Kill the primary, let the recovery cold-open a worker, then kill
    // that worker before the journal replays onto it — the second loss
    // lands while the first recovery is still half done.
    int kills = 0;
    RunResult run = runSupervised(
        p, remoteOpts(), [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_op = [&](std::uint64_t op) {
                if (op == 6 && kills == 0) {
                    kills = 1;
                    killActive(net);
                }
            };
            net.test_hooks.on_recover = [&] {
                if (kills == 1) {
                    kills = 2;
                    killActive(net);
                }
            };
        });

    EXPECT_EQ(kills, 2) << "the failover window was never hit";
    expectSameResults(run, direct, "double failure");
    // Either recovery may land on a worker the supervisor already
    // respawned on the same endpoint, so count sessions, not moves.
    EXPECT_GE(run.reconnects, 2.0);
    EXPECT_GE(sup_->restarts(), 2u);
}

TEST_F(CrashAnywhere, DivergedReplicaIsQuarantinedByAttestation)
{
    startSupervisor();
    NocParams p;
    p.columns = 4;
    p.rows = 4;

    remote::RemoteOptions ro = remoteOpts();
    ro.attest_quanta = 1; // every quantum journals its digest
    ro.ckpt_quanta = 0;   // whole-run journal, one base image
    ro.retry = crashRetry();
    ro.retry.max_attempts = 6; // few, fast mismatch rounds

    Simulation sim;
    remote::RemoteNetwork net(sim, "rnet", p, ro);
    // Every digest the client records from here on is flipped: the
    // journal now describes a run no honest replica can attest to.
    net.test_hooks.corrupt_attest = true;

    Rng rng(0x6e7c, 5);
    PacketId id = 1;
    for (Tick t = kQuantum; t <= 5 * kQuantum; t += kQuantum) {
        for (int i = 0; i < 10; ++i) {
            net.inject(makePacket(
                id++, static_cast<NodeId>(rng.range(net.numNodes())),
                static_cast<NodeId>(rng.range(net.numNodes())),
                static_cast<MsgClass>(rng.range(3)), 8,
                t - kQuantum + static_cast<Tick>(rng.range(kQuantum))));
        }
        net.advanceTo(t);
    }

    // Force a recovery: every replica replays the journal, none can
    // reproduce the corrupted digests, every one is quarantined — the
    // failure surfaces as a typed error instead of a silently diverged
    // simulation.
    killActive(net);
    net.inject(makePacket(id++, 0, 15, MsgClass::Request, 8, 5500));
    try {
        net.advanceTo(6 * kQuantum);
        FAIL() << "a diverged replica was silently accepted";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), ErrorKind::Transport) << err.what();
    }
    EXPECT_GE(net.attestationMismatches.value(), 2.0)
        << "quarantine should have rejected more than one replica";
}

TEST_F(CrashAnywhere, DeadPrimaryBetweenQuantaFailsOverOnNextStep)
{
    // Wide restart backoff: the corpse stays dead until well after the
    // next Step, so the recovery has to move to the other worker.
    startSupervisor(/*backoff_base_ms=*/400.0);
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    Simulation sim;
    remote::RemoteNetwork net(sim, "rnet", p, remoteOpts());
    RunResult run;
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        run.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    runLoop(net, [&](Tick t) {
        if (t != 5 * kQuantum)
            return;
        // Kill the primary while the client is idle between quanta:
        // nobody is looking at the socket, so the loss first shows as
        // the next Step failing, and that Step's retry round fails
        // over.
        EXPECT_EQ(net.activeEndpoint(), addr(0));
        killActive(net);
    });

    for (const ipc::StatRow &row : net.fetchRemoteStats())
        run.stats.emplace_back(row.path, row.sub, row.value);
    run.table = std::make_unique<abstractnet::LatencyTable>(
        net.fetchTunedTable());
    expectSameResults(run, direct, "failover between quanta");
    EXPECT_GE(net.failovers.value(), 1.0);
    EXPECT_EQ(net.activeEndpoint(), addr(1))
        << "the run did not end on the surviving worker";
}

TEST_F(CrashAnywhere, RegistryMirrorsFleetRestartsIntoHealthStats)
{
    startSupervisor();
    // A hand-written registry (a separate file, not the supervisor's)
    // with fleet history: the client must mirror the total restart
    // count into system.net.health.worker_restarts on its cold open.
    const std::string reg = base_ + ".handreg";
    {
        std::ofstream out(reg);
        out << "rasim-registry v1\n"
            << "worker 0 " << addr(0) << " up pid 101 restarts 5\n"
            << "worker 1 " << addr(1) << " up pid 102 restarts 2\n";
    }

    NocParams p;
    p.columns = 4;
    p.rows = 4;
    remote::RemoteOptions ro = remoteOpts();
    ro.registry = reg;

    Simulation sim;
    remote::RemoteNetwork net(sim, "rnet", p, ro);
    EXPECT_EQ(net.workerRestarts.value(), 7.0);
    ::unlink(reg.c_str());
}

} // namespace
