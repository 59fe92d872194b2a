#include "noc/power.hh"

#include "noc/cycle_network.hh"

namespace rasim
{
namespace noc
{

NocActivity
activityOf(CycleNetwork &net)
{
    NocActivity a;
    a.routers = static_cast<int>(net.numNodes());
    a.cycles = static_cast<std::uint64_t>(net.cyclesRun.value());
    for (std::size_t i = 0; i < net.numNodes(); ++i) {
        kernel::RouterActivity r = net.routerActivity(i);
        a.buffer_writes +=
            static_cast<std::uint64_t>(r.buffer_writes);
        a.switch_traversals +=
            static_cast<std::uint64_t>(r.flits_routed);
        a.link_traversals +=
            static_cast<std::uint64_t>(r.link_traversals);
    }
    return a;
}

double
EnergyEstimate::averageMw(double interval_ns) const
{
    // 1 pJ / 1 ns = 1 mW.
    return interval_ns > 0.0 ? totalPj() / interval_ns : 0.0;
}

NocPowerModel::NocPowerModel(PowerParams params) : params_(params)
{
}

EnergyEstimate
NocPowerModel::estimate(const NocActivity &activity) const
{
    EnergyEstimate e;
    e.buffer_pj = params_.buffer_write_pj *
                  static_cast<double>(activity.buffer_writes);
    e.switch_pj = params_.switch_traversal_pj *
                  static_cast<double>(activity.switch_traversals);
    e.link_pj = params_.link_traversal_pj *
                static_cast<double>(activity.link_traversals);
    double interval_ns =
        static_cast<double>(activity.cycles) * params_.ns_per_cycle;
    // mW * ns = pJ.
    e.static_pj = params_.static_mw_per_router * activity.routers *
                  interval_ns;
    return e;
}

} // namespace noc
} // namespace rasim
