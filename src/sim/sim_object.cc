#include "sim/sim_object.hh"

#include "sim/simulation.hh"

namespace rasim
{

SimObject::SimObject(Simulation &sim, const std::string &name,
                     SimObject *parent)
    : stats::Group(parent ? static_cast<stats::Group *>(parent)
                          : &sim.statsRoot(),
                   name),
      Clocked(sim.eventq(), sim.rootClock()), sim_(sim)
{
    sim.registerObject(this);
}

Tick
SimObject::curTick() const
{
    return sim_.curTick();
}

} // namespace rasim
