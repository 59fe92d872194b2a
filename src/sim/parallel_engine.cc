#include "sim/parallel_engine.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace rasim
{

namespace
{

/** Bounded busy-wait before blocking; keeps phase handoff cheap when
 *  phases arrive back to back, without burning CPU across quanta. */
constexpr int spin_limit = 4096;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

ParallelEngine::ParallelEngine(int num_workers,
                               std::size_t min_active_per_slot)
    : num_workers_(num_workers), min_active_(min_active_per_slot)
{
    if (num_workers < 0)
        fatal("parallel engine needs a non-negative worker count");
    // Not clamped: results are bit-identical at any worker count, and
    // oversubscribed sweeps are legitimate experiments — but a run the
    // host cannot parallelise should say so.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0 && static_cast<unsigned>(num_workers) > hw - 1)
        warn("parallel engine: ", num_workers,
             " worker(s) plus the calling thread oversubscribe this "
             "host's ", hw,
             " hardware thread(s); results are unchanged but phases "
             "may run slower than serial");
    errors_.resize(num_workers + 1);
}

void
ParallelEngine::startWorkers()
{
    // Resumes where a failed start stopped: a phase is published only
    // once every worker runs.
    workers_.reserve(num_workers_);
    for (int i = static_cast<int>(workers_.size()); i < num_workers_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ParallelEngine::~ParallelEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_.store(true, std::memory_order_release);
    }
    start_cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ParallelEngine::runPartition(int slot, std::exception_ptr &error) noexcept
{
    // Static block partition over (workers + caller) slots: slot 0 is
    // the caller. Determinism does not depend on the partition shape —
    // the phase discipline isolates every index — but static blocks
    // keep cache behaviour stable across phases, and a phase receives
    // its whole block in one call so it can stream through contiguous
    // structure-of-arrays state.
    std::size_t slots = static_cast<std::size_t>(num_workers_) + 1;
    std::size_t begin = job_n_ * slot / slots;
    std::size_t end = job_n_ * (slot + 1) / slots;
    try {
        if (begin < end)
            (*job_fn_)(begin, end);
    } catch (...) {
        // Remaining indices of this partition are abandoned; the
        // exception resurfaces from forRange() after the barrier so
        // the pool never deadlocks on a throwing phase.
        error = std::current_exception();
    }
}

void
ParallelEngine::workerLoop(int worker_index)
{
    std::uint64_t seen = 0;
    for (;;) {
        // Fast path: spin briefly for the next phase publication. A
        // new generation seen here (acquire, pairing with the caller's
        // release bump) already orders the job fields written before
        // it, so the worker reads them without the mutex; the caller
        // cannot overwrite them until this worker has dropped pending_.
        int spins = 0;
        std::uint64_t gen = generation_.load(std::memory_order_acquire);
        while (gen == seen && spins < spin_limit &&
               !shutdown_.load(std::memory_order_acquire)) {
            ++spins;
            cpuRelax();
            gen = generation_.load(std::memory_order_acquire);
        }
        if (gen == seen) {
            // Slow path: block until a phase or shutdown arrives.
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [this, seen] {
                return shutdown_.load(std::memory_order_relaxed) ||
                       generation_.load(std::memory_order_relaxed) !=
                           seen;
            });
            gen = generation_.load(std::memory_order_relaxed);
            if (gen == seen)
                return; // shutdown with no new phase pending
        }
        seen = gen;

        runPartition(worker_index + 1, errors_[worker_index + 1]);

        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // Lock-then-notify so the caller's predicate check cannot
            // miss the final decrement.
            { std::lock_guard<std::mutex> lock(mutex_); }
            done_cv_.notify_one();
        }
    }
}

void
ParallelEngine::forRange(std::size_t n,
                         const std::function<void(std::size_t,
                                                  std::size_t)> &fn)
{
    ++phases_;
    bool quiet = false;
    std::size_t hint = std::exchange(hint_, no_hint);
    if (hint != no_hint) {
        scaled_mean_ = scaled_mean_ - (scaled_mean_ >> mean_shift) + hint;
        std::size_t slots = static_cast<std::size_t>(num_workers_) + 1;
        quiet = scaled_mean_ < (min_active_ * slots) << mean_shift;
    }
    if (num_workers_ == 0 || quiet) {
        if (n > 0)
            fn(0, n);
        return;
    }
    if (workers_.size() < static_cast<std::size_t>(num_workers_))
        startWorkers();
    ++pooled_;

    std::fill(errors_.begin(), errors_.end(), nullptr);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_n_ = n;
        job_fn_ = &fn;
        pending_.store(static_cast<int>(workers_.size()),
                       std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
    }
    start_cv_.notify_all();

    runPartition(0, errors_[0]);

    int spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0 &&
           spins < spin_limit) {
        ++spins;
        cpuRelax();
    }
    if (pending_.load(std::memory_order_acquire) != 0) {
        std::unique_lock<std::mutex> lock(mutex_);
        // Acquire pairs with the last worker's fetch_sub: without it,
        // seeing 0 orders nothing, and the workers' reads of *fn and
        // their errors_ writes race the caller freeing the phase.
        done_cv_.wait(lock, [this] {
            return pending_.load(std::memory_order_acquire) == 0;
        });
    }

    for (const std::exception_ptr &e : errors_)
        if (e)
            std::rethrow_exception(e);
}

} // namespace rasim
