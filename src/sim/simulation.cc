#include "sim/simulation.hh"

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"

namespace rasim
{

SimParams
SimParams::fromConfig(const Config &cfg)
{
    SimParams p;
    p.seed = cfg.getUInt("sim.seed", p.seed);
    p.clock_period = cfg.getUInt("sim.clock_period", p.clock_period);
    return p;
}

Simulation::Simulation(SimParams params)
    : eventq_("root.eventq"), stats_root_(nullptr, "system"),
      root_clock_("root_clock", params.clock_period), seed_(params.seed)
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
    while (!exit_requested_ && !eventq_.empty() &&
           eventq_.nextTick() <= until) {
        eventq_.serviceOne();
    }
    if (!exit_requested_ && eventq_.curTick() < until &&
        eventq_.empty()) {
        // Queue drained before the horizon; stay at the last event time.
        return eventq_.curTick();
    }
    if (!exit_requested_ && eventq_.curTick() < until)
        eventq_.serviceUntil(until);
    return eventq_.curTick();
}

void
Simulation::exitSimLoop(const std::string &reason)
{
    exit_requested_ = true;
    exit_reason_ = reason;
}

void
Simulation::clearExit()
{
    exit_requested_ = false;
    exit_reason_.clear();
}

} // namespace rasim
