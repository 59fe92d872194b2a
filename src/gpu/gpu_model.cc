#include "gpu/gpu_model.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace rasim
{
namespace gpu
{

void
GpuDeviceParams::validate() const
{
    if (parallel_width < 1)
        fatal("gpu.parallel_width must be positive");
}

GpuTimingModel::GpuTimingModel(GpuDeviceParams params) : params_(params)
{
}

double
GpuTimingModel::cycleNs(int routers) const
{
    // Two kernels (compute + commit); each processes the router array
    // in waves of parallel_width routers, one wave per slot time.
    double waves = std::ceil(static_cast<double>(routers) /
                             params_.parallel_width);
    double body = waves * params_.router_slot_ns;
    return 2.0 * (params_.kernel_launch_ns + body);
}

double
GpuTimingModel::quantumNs(Tick cycles, int routers) const
{
    return static_cast<double>(cycles) * cycleNs(routers) +
           params_.boundary_transfer_ns;
}

double
GpuTimingModel::overlappedRunNs(double host_ns, std::uint64_t quanta,
                                Tick quantum_cycles, int routers) const
{
    if (quanta == 0)
        return host_ns;
    double host_per_quantum = host_ns / static_cast<double>(quanta);
    double device_per_quantum = quantumNs(quantum_cycles, routers);
    return static_cast<double>(quanta) *
           std::max(host_per_quantum, device_per_quantum);
}

} // namespace gpu
} // namespace rasim
