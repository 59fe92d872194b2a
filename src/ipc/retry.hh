/**
 * @file
 * Deterministic retry policy for the remote NoC backend's transport
 * operations, read from the "network.remote.retry.*" config keys.
 *
 * One *round* is one logical operation the client wants to complete —
 * a quantum exchange, a table readback, a checkpoint — however many
 * attempts it takes. Between attempts the policy imposes an
 * exponential backoff (base_ms, growing fourfold per failed attempt up
 * to max_ms, without jitter: the client has one connection to one
 * server, so there are no peers to decorrelate from) and enforces two
 * budgets: a per-round attempt cap and a per-round wall-clock
 * deadline. An exhausted round propagates promptly to the
 * co-simulation bridge, whose health machinery quarantines the
 * backend (HealthMonitor::transportTrips), falls back to the tuned
 * abstract model and spaces out later re-engagements with its own
 * probation backoff.
 *
 * Note on determinism: retry *counts* and the backoff sequence are a
 * pure function of the failure pattern, except where the wall-clock
 * deadline binds. Chaos runs that must be bit-reproducible
 * set retry.deadline_ms=0 (attempt-capped only).
 */

#ifndef RASIM_IPC_RETRY_HH
#define RASIM_IPC_RETRY_HH

#include <chrono>
#include <cstdint>

#include "sim/config.hh"

namespace rasim
{
namespace ipc
{

struct RetryOptions
{
    /** Attempts per round, first try included (min 1 = no retry). */
    std::uint64_t max_attempts = 3;
    /** First backoff, in ms. */
    double backoff_base_ms = 5.0;
    /** Backoff ceiling, in ms. */
    double backoff_max_ms = 200.0;
    /** Wall-clock budget per round, in ms; no further attempt starts
     *  once it is spent (0 = attempts-capped only). */
    double deadline_ms = 1500.0;

    void
    keys(config::Binder &v)
    {
        v("network.remote.retry.max_attempts", max_attempts);
        v("network.remote.retry.base_ms", backoff_base_ms);
        v("network.remote.retry.max_ms", backoff_max_ms);
        v("network.remote.retry.deadline_ms", deadline_ms);
    }

    void validate() const;
};

class RetryPolicy
{
  public:
    RetryPolicy() = default;
    explicit RetryPolicy(RetryOptions opts) : opts_(opts) {}

    const RetryOptions &options() const { return opts_; }

    /** Start a round: resets the attempt counter and deadline. */
    void beginRound();

    /** Record one failed attempt of the current round. */
    void noteFailure() { ++attempt_; }

    /** True when the current round may run another attempt: attempts
     *  remain and the deadline (if any) is not spent. */
    bool shouldRetry() const;

    /** Deterministic backoff before the next attempt: computes it,
     *  sleeps for it, accumulates the counters, and returns the slept
     *  milliseconds. */
    double backoff();

    /** Cap @p want_ms to the round's remaining deadline budget (at
     *  least 1 ms so a capped connect can still be attempted); with
     *  no deadline, @p want_ms is returned unchanged. */
    double capToDeadline(double want_ms) const;

    /** @name Counters (exported as client health stats) */
    /// @{
    std::uint64_t retries() const { return retries_; }
    double backoffMsTotal() const { return backoff_ms_total_; }
    /// @}

  private:
    double elapsedMs() const;

    RetryOptions opts_;
    std::uint64_t attempt_ = 0; ///< failed attempts this round
    std::chrono::steady_clock::time_point round_start_{};
    std::uint64_t retries_ = 0;
    double backoff_ms_total_ = 0.0;
};

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_RETRY_HH
