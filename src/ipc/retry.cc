#include "ipc/retry.hh"

#include <algorithm>
#include <thread>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace rasim
{
namespace ipc
{

RetryOptions
RetryOptions::fromConfig(const Config &cfg)
{
    RetryOptions o;
    o.max_attempts =
        cfg.getUInt("network.remote.retry.max_attempts", o.max_attempts);
    o.backoff_base_ms = cfg.getDouble("network.remote.retry.base_ms",
                                      o.backoff_base_ms);
    o.backoff_multiplier = cfg.getDouble(
        "network.remote.retry.multiplier", o.backoff_multiplier);
    o.backoff_max_ms =
        cfg.getDouble("network.remote.retry.max_ms", o.backoff_max_ms);
    o.jitter = cfg.getDouble("network.remote.retry.jitter", o.jitter);
    o.deadline_ms = cfg.getDouble("network.remote.retry.deadline_ms",
                                  o.deadline_ms);
    if (o.max_attempts == 0)
        fatal("network.remote.retry.max_attempts must be at least 1");
    if (o.backoff_base_ms < 0.0 || o.backoff_max_ms < 0.0 ||
        o.deadline_ms < 0.0)
        fatal("network.remote.retry.* budgets must be non-negative");
    if (o.backoff_multiplier < 1.0)
        fatal("network.remote.retry.multiplier must be at least 1");
    if (o.jitter < 0.0 || o.jitter > 1.0)
        fatal("network.remote.retry.jitter must be in [0, 1]");
    return o;
}

double
RetryPolicy::elapsedMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - round_start_)
        .count();
}

void
RetryPolicy::beginRound()
{
    attempt_ = 0;
    round_start_ = std::chrono::steady_clock::now();
}

bool
RetryPolicy::shouldRetry() const
{
    if (attempt_ >= opts_.max_attempts)
        return false;
    if (opts_.deadline_ms > 0.0 && elapsedMs() >= opts_.deadline_ms)
        return false;
    return true;
}

double
RetryPolicy::backoff()
{
    ++retries_;
    // attempt_ failed attempts so far, so this backoff precedes
    // attempt number attempt_ + 1.
    double ms = opts_.backoff_base_ms;
    for (std::uint64_t i = 1; i < attempt_; ++i)
        ms *= opts_.backoff_multiplier;
    ms = std::min(ms, opts_.backoff_max_ms);
    // One Rng draw per backoff, whatever the jitter setting, so the
    // draw sequence is a pure function of the retry count.
    double u = rng_.uniform();
    ms *= 1.0 - opts_.jitter + opts_.jitter * u;
    backoff_ms_total_ += ms;
    if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
    }
    return ms;
}

double
RetryPolicy::capToDeadline(double want_ms) const
{
    if (opts_.deadline_ms <= 0.0)
        return want_ms;
    double left = opts_.deadline_ms - elapsedMs();
    return std::max(1.0, std::min(left, want_ms));
}

} // namespace ipc
} // namespace rasim
