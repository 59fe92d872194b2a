/**
 * @file
 * Persistent worker-pool execution engine for data-parallel simulation
 * phases — the host-side realisation of the paper's data-parallel
 * router-update kernels, shared by every phase-structured model (the
 * cycle-level and deflection networks today).
 *
 * Results are bit-identical to SerialEngine because phases only touch
 * partition-local state; the pool changes *where* iterations run, not
 * what they compute. Slot s of S (the caller is slot 0) always gets
 * the static block [n*s/S, n*(s+1)/S), so a caller that keeps n fixed
 * keeps every index on the same thread from phase to phase.
 *
 * Work rule: the engine keeps a running mean of the work hints
 * (StepEngine::hintActive), and a hinted phase runs inline on the
 * calling thread while that mean is below min_active_per_slot active
 * nodes per slot, because the handoff would cost more than the split
 * saves. The mean (weight 1/64 per phase, about 32 cycles of a soa
 * fabric) keeps a load that hovers near the threshold from pooling
 * now and then: each pooled phase after an inline stretch wakes
 * sleeping workers, which costs more than many inline phases. The
 * hints count simulated activity only, so which phases pool is
 * reproducible run to run; an unhinted phase always pools and leaves
 * the mean alone. The default threshold comes from bench_m2_hotpath's
 * rule lane (DESIGN.md §14.2).
 *
 * Handoff: workers start at the first pooled phase, once (no
 * spawn-per-call), so a pool that never pools starts no thread. The
 * caller writes the job and bumps generation_ (release) under mutex_,
 * then notifies start_cv_. A worker spins on generation_ with acquire
 * loads; one that sees the bump reads the job straight away, without
 * the mutex or the condition variable, and blocks on start_cv_ only
 * once its spin limit has expired. The caller runs slot 0, then spins
 * on pending_ (acquire, pairing with each worker's final decrement)
 * and blocks on done_cv_ only if its own spin expires. The caller
 * does not touch the job again until pending_ is zero, which is what
 * makes the workers' lock-free reads of it race-free.
 */

#ifndef RASIM_SIM_PARALLEL_ENGINE_HH
#define RASIM_SIM_PARALLEL_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/step_engine.hh"

namespace rasim
{

class ParallelEngine : public StepEngine
{
  public:
    /** Default of the work rule's per-slot threshold. */
    static constexpr std::size_t default_min_active_per_slot = 16;

    /**
     * @param num_workers Worker threads in addition to the calling
     *        thread (which always processes the first partition).
     *        Zero degenerates to serial execution on the caller.
     * @param min_active_per_slot Hinted phases run inline while the
     *        hints' running mean is below this times the slot count.
     *        Tests pass 0 to pool every phase.
     */
    explicit ParallelEngine(
        int num_workers,
        std::size_t min_active_per_slot = default_min_active_per_slot);
    ~ParallelEngine() override;

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    void forRange(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>
                      &fn) override;

    void hintActive(std::size_t nodes) override { hint_ = nodes; }

    const char *name() const override { return "parallel"; }

    int numWorkers() const { return num_workers_; }

    /** Worker threads started so far: 0 until the first pooled phase. */
    int threadsStarted() const { return static_cast<int>(workers_.size()); }

    /** Phases run so far (forRange() calls, forEach() included). */
    std::uint64_t phasesRun() const { return phases_; }

    /** Phases handed to the workers (the rest ran inline). */
    std::uint64_t pooledPhases() const { return pooled_; }

  private:
    static constexpr std::size_t no_hint = static_cast<std::size_t>(-1);

    void startWorkers();
    void workerLoop(int worker_index);
    void runPartition(int slot, std::exception_ptr &error) noexcept;

    const int num_workers_;
    const std::size_t min_active_;
    std::vector<std::thread> workers_;
    /** Captured per slot (caller = 0); first non-null is rethrown. */
    std::vector<std::exception_ptr> errors_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    /** Bumped (under mutex_) to publish a phase; spun on by workers. */
    std::atomic<std::uint64_t> generation_{0};
    /** Workers still inside the current phase. */
    std::atomic<int> pending_{0};
    std::atomic<bool> shutdown_{false};
    std::size_t job_n_ = 0;
    const std::function<void(std::size_t, std::size_t)> *job_fn_ =
        nullptr;

    /** log2 of the running mean's window, in hinted phases. */
    static constexpr int mean_shift = 6;

    /** Set by hintActive(), consumed by the next forRange(). */
    std::size_t hint_ = no_hint;
    /** The hints' running mean, scaled by 2^mean_shift. */
    std::size_t scaled_mean_ = 0;
    std::uint64_t phases_ = 0;
    std::uint64_t pooled_ = 0;
};

} // namespace rasim

#endif // RASIM_SIM_PARALLEL_ENGINE_HH
