#include "sim/simulation.hh"

#include "sim/logging.hh"
#include "sim/sim_object.hh"

namespace rasim
{

Simulation::Simulation(SimParams params)
    : eventq_("root.eventq"), stats_root_(nullptr, "system"),
      seed_(params.seed)
{
}

Simulation::~Simulation() = default;

Rng
Simulation::makeRng(std::uint64_t stream) const
{
    return Rng(seed_ * 0x9e3779b97f4a7c15ULL + 0x243f6a8885a308d3ULL,
               stream);
}

void
Simulation::registerObject(SimObject *obj)
{
    if (initialized_)
        panic("component '", obj->name(),
              "' constructed after simulation start");
    objects_.push_back(obj);
}

void
Simulation::initAll()
{
    if (initialized_)
        return;
    initialized_ = true;
    // Init in construction order: parents were built before children.
    for (SimObject *obj : objects_)
        obj->init();
}

Tick
Simulation::run(Tick until)
{
    initAll();
    while (!eventq_.empty() && eventq_.nextTick() <= until)
        eventq_.serviceOne();
    // A drained queue stays at the last event time; otherwise advance
    // to the horizon.
    if (!eventq_.empty() && eventq_.curTick() < until)
        eventq_.serviceUntil(until);
    return eventq_.curTick();
}

} // namespace rasim
