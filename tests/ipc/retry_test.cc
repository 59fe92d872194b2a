/**
 * @file
 * Unit tests of the deterministic retry machinery: the backoff
 * sequence as a pure function of seed and failure pattern, the
 * attempt/deadline budgets, the circuit breaker's one-probe regime,
 * and the transport fault schedule's reproducibility guarantees —
 * plus config hygiene for the new key families.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/expect_error.hh"
#include "ipc/nocd_server.hh"
#include "ipc/retry.hh"
#include "noc/remote/remote_network.hh"
#include "sim/config.hh"
#include "sim/fault_injector.hh"
#include "sim/rng.hh"

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
    o.backoff_multiplier = 4.0;
    o.backoff_max_ms = 0.16;
    o.jitter = 0.5;
    o.deadline_ms = 0.0;
    o.breaker_failures = 0;
    return o;
}

/** Drive @p rounds full rounds of @p fails failures each, collecting
 *  every backoff. */
std::vector<double>
backoffTrace(RetryPolicy &p, int rounds, int fails)
{
    std::vector<double> trace;
    for (int r = 0; r < rounds; ++r) {
        p.beginRound();
        for (int f = 0; f < fails; ++f) {
            p.noteFailure();
            if (!p.shouldRetry())
                break;
            trace.push_back(p.backoff());
        }
        p.noteSuccess();
    }
    return trace;
}

TEST(RetryPolicy, BackoffSequenceIsAPureFunctionOfTheSeed)
{
    RetryPolicy a(fastOptions(), Rng(0x1234, 7));
    RetryPolicy b(fastOptions(), Rng(0x1234, 7));
    auto ta = backoffTrace(a, 6, 3);
    auto tb = backoffTrace(b, 6, 3);
    ASSERT_FALSE(ta.empty());
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(a.retries(), b.retries());
    EXPECT_DOUBLE_EQ(a.backoffMsTotal(), b.backoffMsTotal());

    // A different stream of the same seed is a different sequence.
    RetryPolicy c(fastOptions(), Rng(0x1234, 8));
    EXPECT_NE(backoffTrace(c, 6, 3), ta);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps)
{
    RetryOptions o = fastOptions();
    o.jitter = 0.0; // exact nominal values
    o.max_attempts = 6;
    RetryPolicy p(o, Rng(1, 1));
    p.beginRound();
    std::vector<double> got;
    for (int f = 0; f < 5; ++f) {
        p.noteFailure();
        ASSERT_TRUE(p.shouldRetry());
        got.push_back(p.backoff());
    }
    // 0.01, 0.04, 0.16, then the 0.16 ceiling binds.
    ASSERT_EQ(got.size(), 5u);
    EXPECT_DOUBLE_EQ(got[0], 0.01);
    EXPECT_DOUBLE_EQ(got[1], 0.04);
    EXPECT_DOUBLE_EQ(got[2], 0.16);
    EXPECT_DOUBLE_EQ(got[3], 0.16);
    EXPECT_DOUBLE_EQ(got[4], 0.16);
}

TEST(RetryPolicy, JitterStaysInsideItsBand)
{
    RetryOptions o = fastOptions();
    o.jitter = 0.5;
    o.backoff_multiplier = 1.0;
    o.backoff_base_ms = 0.1;
    o.backoff_max_ms = 0.1;
    o.max_attempts = 50;
    RetryPolicy p(o, Rng(0xfeed, 2));
    p.beginRound();
    for (int f = 0; f < 40; ++f) {
        p.noteFailure();
        double ms = p.backoff();
        EXPECT_GE(ms, 0.05);
        EXPECT_LT(ms, 0.1 + 1e-12);
    }
}

TEST(RetryPolicy, AttemptCapEndsTheRound)
{
    RetryOptions o = fastOptions();
    o.max_attempts = 3;
    RetryPolicy p(o, Rng(1, 1));
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
    RetryPolicy p(o, Rng(1, 1));
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
    RetryPolicy q(fastOptions(), Rng(1, 1));
    q.beginRound();
    EXPECT_DOUBLE_EQ(q.capToDeadline(5000.0), 5000.0);
}

TEST(RetryPolicy, BreakerOpensAfterConsecutiveExhaustedRounds)
{
    RetryOptions o = fastOptions();
    o.breaker_failures = 2;
    RetryPolicy p(o, Rng(1, 1));

    for (int r = 0; r < 2; ++r) {
        p.beginRound();
        while (true) {
            p.noteFailure();
            if (!p.shouldRetry())
                break;
            p.backoff();
        }
        p.noteRoundFailed();
    }
    EXPECT_TRUE(p.breakerOpen());
    EXPECT_EQ(p.breakerTrips(), 1u);

    // Open breaker: exactly one probe per round, no backoff storm.
    p.beginRound();
    p.noteFailure();
    EXPECT_FALSE(p.shouldRetry());
    p.noteRoundFailed();
    EXPECT_EQ(p.breakerTrips(), 1u) << "an open breaker trips once";

    // The first successful probe closes it again.
    p.beginRound();
    p.noteSuccess();
    EXPECT_FALSE(p.breakerOpen());
}

/** Exhaust one round against @p scope (max_attempts failures). */
void
exhaustRound(RetryPolicy &p, std::size_t scope)
{
    p.beginRound();
    while (true) {
        p.noteFailure();
        if (!p.shouldRetry())
            break;
        p.backoff();
    }
    p.noteRoundFailed(scope);
}

TEST(RetryPolicy, BreakerIsScopedPerEndpoint)
{
    RetryOptions o = fastOptions();
    o.breaker_failures = 2;
    RetryPolicy p(o, Rng(1, 1));
    p.setScopes(2);
    ASSERT_EQ(p.scopes(), 2u);

    // The primary (scope 0) dies repeatedly and trips its breaker.
    exhaustRound(p, 0);
    exhaustRound(p, 0);
    EXPECT_TRUE(p.breakerOpen(0));
    EXPECT_FALSE(p.breakerOpen(1)) << "the secondary never failed";
    EXPECT_EQ(p.breakerTrips(), 1u);

    // This is the regression the scoping exists for: a dead primary's
    // open breaker must not deny the round that would fail over to
    // the healthy secondary.
    p.beginRound();
    p.noteFailure();
    EXPECT_TRUE(p.shouldRetry())
        << "a healthy secondary scope keeps the round alive";

    // A success on the secondary closes nothing of the primary's state.
    p.noteSuccess(1);
    EXPECT_TRUE(p.breakerOpen(0));
    EXPECT_FALSE(p.breakerOpen(1));

    // Only when every endpoint's breaker is open does the one-probe
    // regime kick in.
    exhaustRound(p, 1);
    exhaustRound(p, 1);
    EXPECT_TRUE(p.breakerAllOpen());
    EXPECT_EQ(p.breakerTrips(), 2u);
    p.beginRound();
    p.noteFailure();
    EXPECT_FALSE(p.shouldRetry()) << "all scopes open: one probe only";

    // And one probe succeeding anywhere reopens the path.
    p.noteSuccess(0);
    EXPECT_FALSE(p.breakerAllOpen());
    p.beginRound();
    p.noteFailure();
    EXPECT_TRUE(p.shouldRetry());
}

TEST(RetryPolicy, ScopeFreeCallsKeepLegacySingleEndpointBehaviour)
{
    RetryOptions o = fastOptions();
    o.breaker_failures = 1;
    RetryPolicy p(o, Rng(1, 1));
    // No setScopes() call: scope 0 is the only bucket, so the legacy
    // zero-arg API behaves exactly as the old global breaker did.
    exhaustRound(p, 0);
    EXPECT_TRUE(p.breakerOpen());
    EXPECT_TRUE(p.breakerAllOpen());
    p.noteSuccess();
    EXPECT_FALSE(p.breakerOpen());
}

TEST(RetryOptions, FromConfigReadsAndValidates)
{
    Config cfg;
    cfg.parseArg("network.remote.retry.max_attempts=7");
    cfg.parseArg("network.remote.retry.base_ms=2.5");
    cfg.parseArg("network.remote.retry.multiplier=3");
    cfg.parseArg("network.remote.retry.max_ms=80");
    cfg.parseArg("network.remote.retry.jitter=0.25");
    cfg.parseArg("network.remote.retry.deadline_ms=0");
    cfg.parseArg("network.remote.retry.breaker_failures=5");
    RetryOptions o = RetryOptions::fromConfig(cfg);
    EXPECT_EQ(o.max_attempts, 7u);
    EXPECT_DOUBLE_EQ(o.backoff_base_ms, 2.5);
    EXPECT_DOUBLE_EQ(o.backoff_multiplier, 3.0);
    EXPECT_DOUBLE_EQ(o.backoff_max_ms, 80.0);
    EXPECT_DOUBLE_EQ(o.jitter, 0.25);
    EXPECT_DOUBLE_EQ(o.deadline_ms, 0.0);
    EXPECT_EQ(o.breaker_failures, 5u);

    Config bad;
    bad.parseArg("network.remote.retry.max_attempts=0");
    EXPECT_SIM_ERROR(RetryOptions::fromConfig(bad), "at least 1");

    Config bad2;
    bad2.parseArg("network.remote.retry.jitter=1.5");
    EXPECT_SIM_ERROR(RetryOptions::fromConfig(bad2), "jitter");
}

TEST(TransportFaultOptions, FromConfigReadsAndValidates)
{
    Config cfg;
    cfg.parseArg("fault.transport.enabled=true");
    cfg.parseArg("fault.transport.seed=99");
    cfg.parseArg("fault.transport.torn_frame=0.25");
    cfg.parseArg("fault.transport.stall=0.1");
    cfg.parseArg("fault.transport.stall_ms=0.5");
    cfg.parseArg("fault.transport.start_op=12");
    cfg.parseArg("fault.transport.max_faults=3");
    cfg.parseArg("fault.transport.min_gap_ops=16");
    TransportFaultOptions o = TransportFaultOptions::fromConfig(cfg);
    EXPECT_TRUE(o.enabled);
    EXPECT_EQ(o.seed, 99u);
    EXPECT_DOUBLE_EQ(o.torn_frame, 0.25);
    EXPECT_DOUBLE_EQ(o.stall, 0.1);
    EXPECT_DOUBLE_EQ(o.stall_ms, 0.5);
    EXPECT_EQ(o.start_op, 12u);
    EXPECT_EQ(o.max_faults, 3u);
    EXPECT_EQ(o.min_gap_ops, 16u);

    Config bad;
    bad.parseArg("fault.transport.corrupt=2.0");
    EXPECT_SIM_ERROR(TransportFaultOptions::fromConfig(bad),
                     "probabilities");
}

/** A chaotic sequence of schedule queries, fixed across runs. */
std::vector<TransportFaultKind>
scheduleTrace(TransportFaultSchedule &s, int ops)
{
    std::vector<TransportFaultKind> trace;
    for (int i = 0; i < ops; ++i) {
        switch (i % 3) {
          case 0:
            trace.push_back(s.nextSend());
            break;
          case 1:
            trace.push_back(s.nextRecv(true));
            break;
          default:
            trace.push_back(s.nextRecv(false));
            break;
        }
    }
    return trace;
}

TEST(TransportFaultSchedule, SameSeedSameStreamSameFaults)
{
    TransportFaultOptions o;
    o.enabled = true;
    o.seed = 0xc0de;
    o.torn_frame = 0.05;
    o.short_read = 0.05;
    o.corrupt = 0.05;
    o.disconnect = 0.05;
    o.min_gap_ops = 4;
    TransportFaultSchedule a(o, 1);
    TransportFaultSchedule b(o, 1);
    auto ta = scheduleTrace(a, 3000);
    EXPECT_EQ(ta, scheduleTrace(b, 3000));
    EXPECT_EQ(a.faults(), b.faults());
    EXPECT_GT(a.faults(), 0u) << "the chaos never fired";

    // Another stream of the same seed (a second server session) is an
    // independent schedule.
    TransportFaultSchedule c(o, 2);
    EXPECT_NE(scheduleTrace(c, 3000), ta);
}

TEST(TransportFaultSchedule, StartOpGapAndCapAreHonoured)
{
    TransportFaultOptions o;
    o.enabled = true;
    o.seed = 7;
    o.torn_frame = 1.0; // every eligible op faults
    o.start_op = 10;
    o.min_gap_ops = 5;
    o.max_faults = 3;
    TransportFaultSchedule s(o, 1);
    auto trace = scheduleTrace(s, 60);

    std::uint64_t faults = 0;
    std::uint64_t last_fault = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i] == TransportFaultKind::None)
            continue;
        ++faults;
        EXPECT_GE(i, 10u) << "fault before start_op";
        if (faults > 1) {
            EXPECT_GT(i - last_fault, 5u) << "min_gap_ops violated";
        }
        last_fault = i;
    }
    EXPECT_EQ(faults, 3u) << "max_faults cap ignored";
    EXPECT_EQ(s.faults(), 3u);
    EXPECT_EQ(s.count(TransportFaultKind::TornFrame), 3u);
    EXPECT_EQ(s.ops(), 60u);
}

TEST(ConfigHygiene, MisspelledChaosAndRetryKeysStayUnread)
{
    Config cfg;
    cfg.parseArg("network.remote.retry.max_attemps=9"); // sic
    cfg.parseArg("fault.transport.torn_frmae=0.5");     // sic
    cfg.parseArg("network.remote.retry.base_ms=1");
    // Retired keys: the v1 exchange switch, the run-ahead knobs and
    // the client heartbeat prober.
    cfg.parseArg("network.pipeline.enabled=false");
    cfg.parseArg("network.pipeline.speculate=false");
    cfg.parseArg("server.speculate=false");
    cfg.parseArg("network.remote.heartbeat_ms=20");
    (void)noc::remote::RemoteOptions::fromConfig(cfg);
    (void)NocServerOptions::fromConfig(cfg);
    // The misspelled and retired keys were never read, so the
    // warnUnread() pass in FullSystem / rasim-nocd will name them
    // instead of silently falling back to defaults.
    EXPECT_EQ(cfg.unreadKeysWithPrefix("network."),
              (std::vector<std::string>{
                  "network.pipeline.enabled",
                  "network.pipeline.speculate",
                  "network.remote.heartbeat_ms",
                  "network.remote.retry.max_attemps"}));
    EXPECT_EQ(cfg.unreadKeysWithPrefix("fault."),
              (std::vector<std::string>{"fault.transport.torn_frmae"}));
    EXPECT_EQ(cfg.unreadKeysWithPrefix("server."),
              (std::vector<std::string>{"server.speculate"}));
}

} // namespace
