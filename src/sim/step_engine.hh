/**
 * @file
 * Execution engines for data-parallel simulation phases. A phase is a
 * loop over partition indices in which iteration i only touches
 * partition-i state (the caller's phase discipline guarantees this);
 * an engine decides where those iterations run — the calling thread,
 * a persistent worker pool, or (in the paper's setting) a GPU
 * coprocessor.
 *
 * Determinism contract: because every iteration is partition-local,
 * an engine may execute iterations in any order and on any thread
 * without changing simulation results. Anything that is *not*
 * partition-local (aggregate statistics, delivery callbacks, global
 * counters) must stay outside a phase and be reduced in a fixed
 * index order so serial and parallel runs stay bit-identical.
 */

#ifndef RASIM_SIM_STEP_ENGINE_HH
#define RASIM_SIM_STEP_ENGINE_HH

#include <cstddef>
#include <functional>

namespace rasim
{

class StepEngine
{
  public:
    virtual ~StepEngine() = default;

    /**
     * Apply @p fn to contiguous, disjoint ranges that exactly cover
     * [0, n). Each index is inside exactly one range; ranges may run
     * concurrently but all complete before forRange() returns. A
     * structure-of-arrays kernel wants one call per worker over a
     * contiguous index block so it can stream through flat state, not
     * one call per index. If any range throws, the first exception
     * (by partition slot order) is rethrown after the phase barrier;
     * the engine stays usable afterwards. The default executes the
     * whole interval as a single range on the calling thread, which
     * satisfies the contract for any serial engine.
     */
    virtual void
    forRange(std::size_t n,
             const std::function<void(std::size_t, std::size_t)> &fn)
    {
        if (n > 0)
            fn(0, n);
    }

    /**
     * Apply @p fn to every index in [0, n) exactly once: forRange()
     * with each range looped index by index, so it inherits that
     * call's partition, concurrency and exception contract. Virtual
     * only so decorators (timing, extent recording) can see it.
     */
    virtual void
    forEach(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        forRange(n, [&fn](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                fn(i);
        });
    }

    /** Human-readable engine name for logs and reports. */
    virtual const char *name() const = 0;
};

/** Plain sequential execution on the calling thread. */
class SerialEngine : public StepEngine
{
  public:
    const char *name() const override { return "serial"; }
};

} // namespace rasim

#endif // RASIM_SIM_STEP_ENGINE_HH
