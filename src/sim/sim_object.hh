/**
 * @file
 * Base class of all simulated components.
 */

#ifndef RASIM_SIM_SIM_OBJECT_HH
#define RASIM_SIM_SIM_OBJECT_HH

#include <string>

#include "sim/types.hh"
#include "stats/group.hh"

namespace rasim
{

class Simulation;

/**
 * A named simulated component. SimObjects register with the Simulation
 * at construction, form the statistics hierarchy (SimObject is a stats
 * Group), and get an init() hook called once before the first event is
 * serviced.
 */
class SimObject : public stats::Group
{
  public:
    /**
     * @param sim Owning simulation.
     * @param name Local name; hierarchical path comes from @p parent.
     * @param parent Parent component for the stats tree, or nullptr to
     *        attach directly under the simulation root.
     */
    SimObject(Simulation &sim, const std::string &name,
              SimObject *parent = nullptr);
    ~SimObject() override = default;

    /**
     * One-time initialisation after the whole component tree is built
     * and before the first event runs. Wiring between components that
     * needs every object constructed belongs here.
     */
    virtual void init() {}

    /** Local name (use path() for the fully qualified name). */
    const std::string &name() const { return groupName(); }

    Simulation &sim() const { return sim_; }

    /** Current simulated time. */
    Tick curTick() const;

  private:
    Simulation &sim_;
};

} // namespace rasim

#endif // RASIM_SIM_SIM_OBJECT_HH
