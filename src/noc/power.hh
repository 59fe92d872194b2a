/**
 * @file
 * Activity-based NoC energy model (ORION-style abstraction): dynamic
 * energy from per-event costs (buffer write, crossbar traversal, link
 * traversal) plus per-router static leakage over the simulated
 * interval. Event counts come straight from the cycle network's
 * activity counters, so the model prices exactly what was simulated.
 */

#ifndef RASIM_NOC_POWER_HH
#define RASIM_NOC_POWER_HH

#include <cstdint>

namespace rasim
{
namespace noc
{

class CycleNetwork;

/** Per-event energies (picojoules) and leakage (milliwatts). */
struct PowerParams
{
    double buffer_write_pj = 1.2;
    double switch_traversal_pj = 0.8;
    double link_traversal_pj = 1.8;
    double static_mw_per_router = 0.5;
    /** Wall-clock length of one network cycle, for leakage. */
    double ns_per_cycle = 1.0;
};

/** Aggregated switching activity of a simulated interval. */
struct NocActivity
{
    std::uint64_t buffer_writes = 0;
    std::uint64_t switch_traversals = 0;
    std::uint64_t link_traversals = 0;
    std::uint64_t cycles = 0;
    int routers = 0;
};

/** Collect the activity counters of a cycle network. */
NocActivity activityOf(CycleNetwork &net);

/** Energy breakdown of one simulated interval. */
struct EnergyEstimate
{
    double buffer_pj = 0.0;
    double switch_pj = 0.0;
    double link_pj = 0.0;
    double static_pj = 0.0;

    double
    totalPj() const
    {
        return buffer_pj + switch_pj + link_pj + static_pj;
    }

    /** Average power over the interval in milliwatts. */
    double averageMw(double interval_ns) const;
};

class NocPowerModel
{
  public:
    explicit NocPowerModel(PowerParams params = PowerParams());

    EnergyEstimate estimate(const NocActivity &activity) const;

    const PowerParams &params() const { return params_; }

  private:
    PowerParams params_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_POWER_HH
