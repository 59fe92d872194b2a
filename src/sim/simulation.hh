/**
 * @file
 * Top-level simulation container: event queue, the component
 * registry and the run loop.
 */

#ifndef RASIM_SIM_SIMULATION_HH
#define RASIM_SIM_SIMULATION_HH

#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/eventq.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/group.hh"

namespace rasim
{

class SimObject;

/** Global simulation knobs ("sim.*" keys). */
struct SimParams
{
    /** Seed every component RNG stream derives from. */
    std::uint64_t seed = 1;

    void keys(config::Binder &v) { v("sim.seed", seed); }
};

/**
 * Owns the global simulation state. Components are built against a
 * Simulation, then run() drives the event loop until the queue drains
 * or a tick limit is reached.
 */
class Simulation
{
  public:
    explicit Simulation(SimParams params = {});
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &eventq() { return eventq_; }
    const EventQueue &eventq() const { return eventq_; }
    Tick curTick() const { return eventq_.curTick(); }

    /** Root of the statistics tree ("system"). */
    stats::Group &statsRoot() { return stats_root_; }
    const stats::Group &statsRoot() const { return stats_root_; }

    /**
     * Per-component RNG derived from the global seed (SimParams::seed)
     * and a caller-chosen stream id, so adding components does not
     * perturb existing streams.
     */
    Rng makeRng(std::uint64_t stream) const;

    /** Called by the SimObject constructor. */
    void registerObject(SimObject *obj);

    /**
     * Run until @p until or queue drain, whichever comes first.
     * Calls init() on all components the first time.
     * @return the tick at which the loop stopped.
     */
    Tick run(Tick until = max_tick);

    /**
     * Mark the simulation as initialized without calling init() on the
     * components. Checkpoint restore uses this: init() would schedule
     * fresh startup events, but a restored run re-creates its pending
     * events from the archive instead.
     */
    void markInitialized() { initialized_ = true; }

  private:
    void initAll();

    EventQueue eventq_;
    stats::Group stats_root_;
    std::uint64_t seed_;
    std::vector<SimObject *> objects_;
    bool initialized_ = false;
};

} // namespace rasim

#endif // RASIM_SIM_SIMULATION_HH
