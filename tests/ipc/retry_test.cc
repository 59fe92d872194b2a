/**
 * @file
 * Unit tests of the deterministic retry machinery: the backoff
 * sequence as a pure function of the failure pattern and the
 * attempt/deadline budgets — plus config hygiene for the remote key
 * families and the retired ones.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/expect_error.hh"
#include "cosim/full_system.hh"
#include "ipc/retry.hh"
#include "sim/config.hh"

namespace
{

using namespace rasim;
using namespace rasim::ipc;

/** Tiny budgets so the sleeps inside backoff() stay negligible. */
RetryOptions
fastOptions()
{
    RetryOptions o;
    o.max_attempts = 5;
    o.backoff_base_ms = 0.01;
    o.backoff_max_ms = 0.16;
    o.deadline_ms = 0.0;
    return o;
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps)
{
    RetryOptions o = fastOptions();
    o.max_attempts = 6;
    RetryPolicy p(o);
    p.beginRound();
    std::vector<double> got;
    for (int f = 0; f < 5; ++f) {
        p.noteFailure();
        ASSERT_TRUE(p.shouldRetry());
        got.push_back(p.backoff());
    }
    // 0.01, 0.04, 0.16 (fourfold growth), then the 0.16 ceiling
    // binds. No jitter: the sequence is a pure function of the
    // failure count.
    ASSERT_EQ(got.size(), 5u);
    EXPECT_DOUBLE_EQ(got[0], 0.01);
    EXPECT_DOUBLE_EQ(got[1], 0.04);
    EXPECT_DOUBLE_EQ(got[2], 0.16);
    EXPECT_DOUBLE_EQ(got[3], 0.16);
    EXPECT_DOUBLE_EQ(got[4], 0.16);
}

TEST(RetryPolicy, AttemptCapEndsTheRound)
{
    RetryOptions o = fastOptions();
    o.max_attempts = 3;
    RetryPolicy p(o);
    p.beginRound();
    p.noteFailure();
    EXPECT_TRUE(p.shouldRetry());
    p.noteFailure();
    EXPECT_TRUE(p.shouldRetry());
    p.noteFailure();
    EXPECT_FALSE(p.shouldRetry()) << "3 failed attempts of 3 allowed";
}

TEST(RetryPolicy, DeadlineBindsAndCapsConnectBudgets)
{
    RetryOptions o = fastOptions();
    o.deadline_ms = 40.0;
    RetryPolicy p(o);
    p.beginRound();
    EXPECT_LE(p.capToDeadline(5000.0), 40.0);
    EXPECT_DOUBLE_EQ(p.capToDeadline(1.5), 1.5);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    p.noteFailure();
    EXPECT_FALSE(p.shouldRetry()) << "the round's deadline is spent";
    // Even with the budget spent, a capped connect gets its 1 ms
    // floor instead of a zero/negative timeout.
    EXPECT_DOUBLE_EQ(p.capToDeadline(5000.0), 1.0);

    // deadline_ms=0 is the bit-reproducible mode: nothing is capped.
    RetryPolicy q(fastOptions());
    q.beginRound();
    EXPECT_DOUBLE_EQ(q.capToDeadline(5000.0), 5000.0);
}

TEST(RetryOptions, FromConfigReadsAndValidates)
{
    Config cfg;
    cfg.parseArg("network.remote.retry.max_attempts=7");
    cfg.parseArg("network.remote.retry.base_ms=2.5");
    cfg.parseArg("network.remote.retry.max_ms=80");
    cfg.parseArg("network.remote.retry.deadline_ms=0");
    RetryOptions o = config::parse<RetryOptions>(cfg);
    EXPECT_EQ(o.max_attempts, 7u);
    EXPECT_DOUBLE_EQ(o.backoff_base_ms, 2.5);
    EXPECT_DOUBLE_EQ(o.backoff_max_ms, 80.0);
    EXPECT_DOUBLE_EQ(o.deadline_ms, 0.0);

    Config bad;
    bad.parseArg("network.remote.retry.max_attempts=0");
    EXPECT_SIM_ERROR(config::parse<RetryOptions>(bad), "at least 1");

    Config bad2;
    bad2.parseArg("network.remote.retry.base_ms=-1");
    EXPECT_SIM_ERROR(config::parse<RetryOptions>(bad2), "non-negative");
}

TEST(ConfigHygiene, MisspelledChaosAndRetryKeysStayUnread)
{
    Config cfg;
    cfg.parseArg("network.remote.retry.max_attemps=9"); // sic
    cfg.parseArg("network.remote.retry.base_ms=1");
    // Retired keys: the v1 exchange switch, the run-ahead knobs, the
    // client heartbeat prober and the multi-endpoint failover (an old
    // command line must hear that it lost its failover).
    cfg.parseArg("network.pipeline.enabled=false");
    cfg.parseArg("network.pipeline.speculate=false");
    cfg.parseArg("server.speculate=false");
    cfg.parseArg("server.address=unix:/tmp/rasim-nocd.sock");
    cfg.parseArg("network.remote.heartbeat_ms=20");
    cfg.parseArg("network.remote.endpoints=unix:/tmp/a,unix:/tmp/b");
    cfg.parseArg("network.remote.registry=/tmp/fleet.registry");
    cfg.parseArg("network.remote.retry.breaker_failures=0");
    // The transport chaos keys: the fault injector is a test fixture
    // now, so an old chaos command line must hear that nothing reads
    // them.
    const std::vector<std::string> chaos = {
        "fault.transport.corrupt",    "fault.transport.delay",
        "fault.transport.delay_ms",   "fault.transport.disconnect",
        "fault.transport.enabled",    "fault.transport.max_faults",
        "fault.transport.min_gap_ops", "fault.transport.seed",
        "fault.transport.short_read", "fault.transport.stall",
        "fault.transport.stall_ms",   "fault.transport.start_op",
        "fault.transport.torn_frame"};
    for (const std::string &k : chaos)
        cfg.parseArg(k + "=1");
    (void)config::parse<cosim::FullSystemOptions>(cfg);
    // The misspelled and retired keys were never read, so the
    // warnUnread() pass in FullSystem will name them instead of
    // silently falling back to defaults.
    EXPECT_EQ(cfg.unreadKeysWithPrefix("network."),
              (std::vector<std::string>{
                  "network.pipeline.enabled",
                  "network.pipeline.speculate",
                  "network.remote.endpoints",
                  "network.remote.heartbeat_ms",
                  "network.remote.registry",
                  "network.remote.retry.breaker_failures",
                  "network.remote.retry.max_attemps"}));
    EXPECT_EQ(cfg.unreadKeysWithPrefix("fault."), chaos);
    EXPECT_EQ(cfg.unreadKeysWithPrefix("server."),
              (std::vector<std::string>{"server.address",
                                        "server.speculate"}));

    // remote.model retired into noc.router: its old default is read
    // and accepted, any other value is refused before the run instead
    // of silently hosting the VC router.
    Config old;
    old.parseArg("remote.model=cycle");
    (void)config::parse<cosim::FullSystemOptions>(old);
    EXPECT_TRUE(old.unreadKeysWithPrefix("remote.").empty());
    Config defl;
    defl.parseArg("remote.model=deflection");
    EXPECT_SIM_ERROR(config::parse<cosim::FullSystemOptions>(defl),
                     "unknown remote.model 'deflection' (cycle is its "
                     "only value)");
}

} // namespace
