#include "ipc/retry.hh"

#include <algorithm>
#include <thread>

#include "sim/logging.hh"

namespace rasim
{
namespace ipc
{

namespace
{

/** Growth factor of successive backoffs within one round. */
constexpr double backoff_multiplier = 4.0;

} // namespace

void
RetryOptions::validate() const
{
    if (max_attempts == 0)
        fatal("network.remote.retry.max_attempts must be at least 1");
    if (backoff_base_ms < 0.0 || backoff_max_ms < 0.0 || deadline_ms < 0.0)
        fatal("network.remote.retry.* budgets must be non-negative");
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
        ms *= backoff_multiplier;
    ms = std::min(ms, opts_.backoff_max_ms);
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
