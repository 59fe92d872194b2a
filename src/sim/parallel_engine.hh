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
 * Handoff: workers are started once (no spawn-per-call). The caller
 * writes the job and bumps generation_ (release) under mutex_, then
 * notifies start_cv_. A worker spins on generation_ with acquire
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
    /**
     * @param num_workers Worker threads in addition to the calling
     *        thread (which always processes the first partition).
     *        Zero degenerates to serial execution on the caller.
     */
    explicit ParallelEngine(int num_workers);
    ~ParallelEngine() override;

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    void forRange(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>
                      &fn) override;

    const char *name() const override { return "parallel"; }

    int numWorkers() const { return static_cast<int>(workers_.size()); }

    /** Phases run so far (forRange() calls, forEach() included). */
    std::uint64_t phasesRun() const { return phases_; }

  private:
    void workerLoop(int worker_index);
    void runPartition(int slot, std::exception_ptr &error) noexcept;

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

    std::uint64_t phases_ = 0;
};

} // namespace rasim

#endif // RASIM_SIM_PARALLEL_ENGINE_HH
