/**
 * @file
 * The chaos soak: the transport fault-tolerance differential over the
 * full co-simulation and a real socket. Quickstart's run (4x4 fft,
 * reciprocal cosim, 2000 ops per core) over the remote backend, first
 * fault-free against a forked rasim-nocd (the baseline), then once per
 * seed with client-side transport chaos (torn frames, short reads, CRC
 * corruption, delays, stalls, cold disconnects) and deterministic
 * retry, and once against an in-process server whose sessions tear
 * their own replies. Every chaos run must inject at least one fault
 * and end with the baseline's headline results: finish tick, packets,
 * mean latencies and the reciprocal table's observation count.
 *
 * The transport/health counters (retries, reconnects, backoff) differ
 * between a chaotic and a calm run and are no part of the claim. On a
 * mismatch the failing seed is in the trace, so the run can be
 * replayed exactly.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "cosim/full_system.hh"
#include "ipc/faulty_transport.hh"
#include "ipc/nocd_server.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

/** The block of quickstart's output a chaos run must reproduce. */
struct Headline
{
    Tick finish = 0;
    std::uint64_t packets = 0;
    double latency = 0.0;
    double request = 0.0;
    double forward = 0.0;
    double response = 0.0;
    std::uint64_t observations = 0;

    bool operator==(const Headline &o) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Headline &h)
{
    return os << "finish " << h.finish << ", packets " << h.packets
              << ", latency " << h.latency << " (" << h.request << " / "
              << h.forward << " / " << h.response << "), observations "
              << h.observations;
}

/** Quickstart's configuration with system.ops_per_core=2000 over the
 *  remote backend at @p socket; with @p chaos_retry also the
 *  bit-reproducible retry budgets: no wall-clock deadline (the one
 *  nondeterministic input), an attempt budget above the fault cap and
 *  a short journal, so every recovery replay stays small. */
FullSystemOptions
soakOptions(const std::string &socket, bool chaos_retry)
{
    Config cfg;
    cfg.set("system.mode", std::string("cosim"));
    cfg.set("system.app", std::string("fft"));
    cfg.set("system.ops_per_core", 2000);
    cfg.set("noc.columns", 4);
    cfg.set("noc.rows", 4);
    cfg.set("network.backend", std::string("remote"));
    cfg.set("remote.socket", socket);
    if (chaos_retry) {
        cfg.set("network.remote.retry.max_attempts", 12);
        cfg.set("network.remote.retry.base_ms", 0.05);
        cfg.set("network.remote.retry.max_ms", 0.5);
        cfg.set("network.remote.retry.deadline_ms", 0);
        cfg.set("network.remote.ckpt_quanta", 16);
    }
    return FullSystemOptions::fromConfig(cfg);
}

struct SoakRun
{
    Headline headline;
    double reconnects = 0.0;
};

SoakRun
runSoak(const FullSystemOptions &o, ipc::ChannelDecorator decorate = {})
{
    FullSystem sys(Config(), o, std::move(decorate));
    SoakRun r;
    r.headline.finish = sys.run();
    EXPECT_TRUE(sys.allCoresDone());
    r.headline.packets = sys.packetsDelivered();
    r.headline.latency = sys.meanPacketLatency();
    r.headline.request = sys.meanPacketLatency(noc::MsgClass::Request);
    r.headline.forward = sys.meanPacketLatency(noc::MsgClass::Forward);
    r.headline.response = sys.meanPacketLatency(noc::MsgClass::Response);
    r.headline.observations = sys.bridge().table().observations();
    r.reconnects = sys.remoteNetwork()->reconnects.value();
    return r;
}

class ChaosSoak : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = "/tmp/rasim-soak-" + std::to_string(::getpid()) + ".sock";
        // Built before the fork: the child may only make
        // async-signal-safe calls until it execs.
        const std::string addr = "unix:" + path_;
        pid_ = ::fork();
        if (pid_ == 0) {
            ::execl(RASIM_NOCD_PATH, "rasim-nocd", addr.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ASSERT_GT(pid_, 0);
        for (int i = 0; i < 1000 && ::access(path_.c_str(), F_OK) != 0;
             ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_EQ(::access(path_.c_str(), F_OK), 0)
            << "rasim-nocd did not come up";
        baseline_ = runSoak(soakOptions(addr, false)).headline;
        ASSERT_GT(baseline_.packets, 0u);
    }

    void
    TearDown() override
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            ::waitpid(pid_, nullptr, 0);
        }
        ::unlink(path_.c_str());
    }

    std::string address() const { return "unix:" + path_; }

    std::string path_;
    pid_t pid_ = -1;
    Headline baseline_;
};

TEST_F(ChaosSoak, ClientChaosSeedsMatchTheFaultFreeRun)
{
    for (std::uint64_t seed : {1ull, 22695477ull, 987654321ull}) {
        SCOPED_TRACE("client chaos seed " + std::to_string(seed));
        ipc::TransportFaultOptions plan;
        plan.seed = seed;
        plan.torn_frame = 0.01;
        plan.short_read = 0.005;
        plan.corrupt = 0.01;
        plan.delay = 0.01;
        plan.delay_ms = 0.05;
        plan.stall = 0.005;
        plan.stall_ms = 0.1;
        plan.disconnect = 0.005;
        plan.min_gap_ops = 25;
        plan.max_faults = 10;
        ipc::TransportFaultSchedule sched(plan);
        SoakRun run = runSoak(soakOptions(address(), true),
                              ipc::clientChaos(&sched));
        EXPECT_GE(sched.faults(), 1u) << "the chaos plan never fired";
        EXPECT_EQ(run.headline, baseline_);
    }
}

TEST_F(ChaosSoak, ServerChaosMatchesTheFaultFreeRun)
{
    // Every session of this server tears its own replies: the
    // mid-frame-kill scenario, with the daemon alive throughout.
    ipc::TransportFaultOptions plan;
    plan.seed = 7;
    plan.torn_frame = 0.01;
    plan.min_gap_ops = 20;
    plan.max_faults = 10;
    ipc::NocServerOptions so;
    so.address = "unix:/tmp/rasim-soak-server-" +
                 std::to_string(::getpid()) + ".sock";
    ipc::NocServer server(so, ipc::serverChaos(plan));
    std::thread serving([&server] { server.run(); });

    SoakRun run = runSoak(soakOptions(so.address, true));
    server.stop();
    serving.join();
    // Each torn reply costs the client its connection.
    EXPECT_GE(run.reconnects, 1.0) << "the server never faulted";
    EXPECT_EQ(run.headline, baseline_);
}

} // namespace
