/**
 * @file
 * The crash-anywhere differential harness — the headline proof of the
 * recovery layer (DESIGN.md section 13). A real rasim-nocd process
 * serves one endpoint, a small respawner in the fixture restarts it
 * whenever it dies, and the tests SIGKILL it at the nastiest
 * client-side moments: at seeded random operation indices, inside a
 * CkptSave exchange, in the middle of a journal replay, and in the
 * window between a recovery's cold open and its replay (the double
 * failure). The client's recovery lineage (a cold open of the base
 * image plus journal replay, on whichever process answers) rebuilds
 * the pre-crash state, and the run must end *bit-identical* to the
 * fault-free in-process run — deliveries and server stats tree. On
 * top of that: a diverged replica is caught by its
 * attestation digest and never computed on, and the health counters
 * (reconnects, attestation_mismatches) account for all of it.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ipc/socket.hh"
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

    /** Sessions re-opened after a loss (remote runs only). */
    double reconnects = 0.0;
};

/** Ground truth: the network hosted in this process, no transport. */
RunResult
runDirect(const NocParams &p)
{
    Simulation sim;
    CycleNetwork net(sim, "net", p);
    RunResult r;
    net.setDeliveryHandler([&](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
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
}

/** Retry budget sized for a respawn window: no wall-clock deadline
 *  and enough backed-off attempts that the differential never sheds
 *  its lineage. */
ipc::RetryOptions
crashRetry()
{
    ipc::RetryOptions r;
    r.max_attempts = 60;
    r.backoff_base_ms = 5.0;
    r.backoff_max_ms = 50.0;
    r.deadline_ms = 0.0;
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
        stopWorker();
        // A SIGKILLed server cannot remove its socket file.
        ::unlink((base_ + ".sock").c_str());
    }

    std::string addr() const { return "unix:" + base_ + ".sock"; }

    /** Keep one rasim-nocd serving addr(): fork/exec it, and let a
     *  reaper thread restart it whenever it dies, until stopWorker(). */
    void
    startWorker()
    {
        running_ = true;
        pid_ = spawn();
        reaper_ = std::thread([this] {
            for (;;) {
                if (::waitpid(pid_.load(), nullptr, 0) < 0 &&
                    errno == EINTR)
                    continue;
                std::lock_guard<std::mutex> lock(mu_);
                if (!running_)
                    return;
                ++restarts_;
                pid_ = spawn();
            }
        });
        waitConnectable(addr());
    }

    pid_t
    spawn()
    {
        // Built before the fork: the child of a threaded process may
        // only make async-signal-safe calls until it execs.
        const std::string a = addr();
        pid_t pid = ::fork();
        if (pid == 0) {
            ::execl(RASIM_NOCD_PATH, "rasim-nocd", a.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        return pid;
    }

    void
    stopWorker()
    {
        if (!reaper_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            running_ = false;
            ::kill(pid_.load(), SIGKILL);
        }
        reaper_.join();
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

    /** SIGKILL the server behind the client's session. */
    void killWorker() { ::kill(pid_.load(), SIGKILL); }

    remote::RemoteOptions
    remoteOpts() const
    {
        remote::RemoteOptions ro;
        ro.socket = addr();
        ro.retry = crashRetry();
        ro.ckpt_quanta = 2; // short journals, frequent base refreshes
        return ro;
    }

    /** A full remote run against the respawned server. @p arm installs
     *  the test hooks once the session is up (the constructor's own
     *  exchanges stay kill-free, so every test starts from a healthy
     *  server). Each quantum sleeps ~2 ms of wall clock, giving a
     *  respawn room to land inside the run — pure timing, so the
     *  differential is untouched. */
    RunResult
    runRespawned(const NocParams &p, remote::RemoteOptions ro,
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
        r.reconnects = net.reconnects.value();
        return r;
    }

    std::string base_;
    std::mutex mu_;
    bool running_ = false;
    std::atomic<pid_t> pid_{0};
    std::atomic<std::uint64_t> restarts_{0};
    std::thread reaper_;
};

TEST_F(CrashAnywhere, SeededRandomKillsEndBitIdentical)
{
    startWorker();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // A seeded schedule of kill points over the run's operation
    // stream; each recovery cold-opens against a server that may still
    // be respawning.
    std::set<std::uint64_t> kill_ops;
    Rng rng(0xc4a57, 9);
    while (kill_ops.size() < 3)
        kill_ops.insert(3 + rng.range(14));

    std::uint64_t kills = 0;
    RunResult run = runRespawned(
        p, remoteOpts(), [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_op = [&](std::uint64_t op) {
                if (!kill_ops.count(op))
                    return;
                ++kills;
                killWorker();
            };
        });

    EXPECT_EQ(kills, kill_ops.size()) << "a kill point never fired";
    expectSameResults(run, direct, "seeded random kills");
    EXPECT_GE(run.reconnects, static_cast<double>(kill_ops.size()));
    EXPECT_GE(restarts_.load(), kill_ops.size());
}

TEST_F(CrashAnywhere, KillDuringCheckpointSaveKeepsOldLineage)
{
    startWorker();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // The worker dies *inside* the CkptSave exchange: the base refresh
    // fails, the old (longer-journal) lineage must survive and carry
    // the recovery.
    bool killed = false;
    RunResult run = runRespawned(
        p, remoteOpts(), [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_ckpt_save = [&] {
                if (killed)
                    return;
                killed = true;
                killWorker();
            };
        });

    EXPECT_TRUE(killed) << "no checkpoint refresh ever ran";
    expectSameResults(run, direct, "kill during CkptSave");
    EXPECT_GE(run.reconnects, 1.0);
}

TEST_F(CrashAnywhere, KillDuringJournalReplayRecoversOnAnotherReplica)
{
    startWorker();
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
    RunResult run = runRespawned(
        p, ro, [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_op = [&](std::uint64_t op) {
                if (phase == 0 && op == 7) {
                    phase = 1;
                    killWorker();
                }
            };
            net.test_hooks.on_replay = [&](std::size_t i) {
                if (phase == 1 && i >= 1) {
                    phase = 2;
                    killWorker();
                }
            };
        });

    EXPECT_EQ(phase, 2) << "the replay window was never hit";
    expectSameResults(run, direct, "kill during replay");
    EXPECT_GE(run.reconnects, 2.0);
}

TEST_F(CrashAnywhere, DoubleFailureAcrossTheFailoverWindow)
{
    startWorker();
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    RunResult direct = runDirect(p);

    // Kill the server, let the recovery cold-open its respawn, then
    // kill that one before the journal replays onto it — the second
    // loss lands while the first recovery is still half done.
    int kills = 0;
    RunResult run = runRespawned(
        p, remoteOpts(), [&](remote::RemoteNetwork &net) {
            net.test_hooks.on_op = [&](std::uint64_t op) {
                if (op == 6 && kills == 0) {
                    kills = 1;
                    killWorker();
                }
            };
            net.test_hooks.on_recover = [&] {
                if (kills == 1) {
                    kills = 2;
                    killWorker();
                }
            };
        });

    EXPECT_EQ(kills, 2) << "the failover window was never hit";
    expectSameResults(run, direct, "double failure");
    EXPECT_GE(run.reconnects, 2.0);
    EXPECT_GE(restarts_.load(), 2u);
}

TEST_F(CrashAnywhere, DivergedReplicaIsQuarantinedByAttestation)
{
    startWorker();
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

    // Force a recovery: every rebuilt replica replays the journal and
    // none can reproduce the corrupted digests, so every attempt fails
    // until the retry budget runs out — the failure surfaces as a
    // typed error instead of a silently diverged simulation.
    killWorker();
    net.inject(makePacket(id++, 0, 15, MsgClass::Request, 8, 5500));
    try {
        net.advanceTo(6 * kQuantum);
        FAIL() << "a diverged replica was silently accepted";
    } catch (const SimError &err) {
        EXPECT_EQ(err.kind(), ErrorKind::Transport) << err.what();
    }
    EXPECT_GE(net.attestationMismatches.value(), 1.0)
        << "no replica was rejected by its attestation digest";
}

} // namespace
