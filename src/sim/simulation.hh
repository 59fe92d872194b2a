/**
 * @file
 * Top-level simulation container: event queue, clock domains, the
 * component registry and the run loop.
 */

#ifndef RASIM_SIM_SIMULATION_HH
#define RASIM_SIM_SIMULATION_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/clocked.hh"
#include "sim/eventq.hh"
#include "sim/rng.hh"
#include "sim/types.hh"
#include "stats/group.hh"

namespace rasim
{

class Config;
class SimObject;

/** Global simulation knobs ("sim.*" keys). */
struct SimParams
{
    /** Seed every component RNG stream derives from ("sim.seed"). */
    std::uint64_t seed = 1;
    /** Period of the reference clock domain ("sim.clock_period"). */
    Tick clock_period = 1;

    /** Read the "sim.*" keys. */
    static SimParams fromConfig(const Config &cfg);
};

/**
 * Owns the global simulation state. Components are built against a
 * Simulation, then run() drives the event loop until an exit is
 * requested, the queue drains, or a tick limit is reached.
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

    /** Reference clock domain (period from SimParams::clock_period). */
    const ClockDomain &rootClock() const { return root_clock_; }

    /**
     * Per-component RNG derived from the global seed (SimParams::seed)
     * and a caller-chosen stream id, so adding components does not
     * perturb existing streams.
     */
    Rng makeRng(std::uint64_t stream) const;

    /** Called by the SimObject constructor. */
    void registerObject(SimObject *obj);

    /**
     * Run until @p until, an exit request, or queue drain — whichever
     * comes first. Calls init() on all components the first time.
     * @return the tick at which the loop stopped.
     */
    Tick run(Tick until = max_tick);

    /** Request the run loop to stop after the current event. */
    void exitSimLoop(const std::string &reason);

    bool exitRequested() const { return exit_requested_; }
    const std::string &exitReason() const { return exit_reason_; }

    /** Clear an exit request so run() can be called again. */
    void clearExit();

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
    ClockDomain root_clock_;
    std::uint64_t seed_;
    std::vector<SimObject *> objects_;
    bool initialized_ = false;
    bool exit_requested_ = false;
    std::string exit_reason_;
};

} // namespace rasim

#endif // RASIM_SIM_SIMULATION_HH
