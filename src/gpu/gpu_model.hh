/**
 * @file
 * Timing model of a GPU coprocessor executing the per-cycle router
 * kernels — the substitution for real CUDA hardware (see DESIGN.md).
 *
 * The device executes two kernels per simulated network cycle (the
 * compute and commit phases). Each launch pays a fixed overhead; the
 * kernel body processes all routers at a fixed per-router throughput
 * with `parallel_width` routers in flight concurrently. Every quantum
 * boundary additionally pays a host<->device transfer for the packet
 * exchange. These three terms give the paper's scaling shape: launch
 * overhead dominates small targets, parallel throughput wins large
 * ones.
 */

#ifndef RASIM_GPU_GPU_MODEL_HH
#define RASIM_GPU_GPU_MODEL_HH

#include <cstdint>

#include "sim/config.hh"
#include "sim/types.hh"

namespace rasim
{
namespace gpu
{

/**
 * Device parameters. The defaults are calibrated so that, against the
 * serial host cost measured on the reference machine, the modelled
 * CPU+GPU co-simulation lands at the paper's two reported reductions
 * (16% at 256 cores, 65% at 512 cores) — see EXPERIMENTS.md E4 for
 * the calibration arithmetic. Override via gpu.* config keys.
 */
struct GpuDeviceParams
{
    /** Fixed cost of one kernel launch incl. sync (ns). */
    double kernel_launch_ns = 28000.0;
    /** Device time per wave of parallel_width routers (ns). */
    double router_slot_ns = 6850.0;
    /** Routers processed concurrently by the device. */
    int parallel_width = 128;
    /** Host<->device transfer per quantum boundary (ns). */
    double boundary_transfer_ns = 20000.0;

    void
    keys(config::Binder &v)
    {
        v("gpu.kernel_launch_ns", kernel_launch_ns);
        v("gpu.router_slot_ns", router_slot_ns);
        v("gpu.parallel_width", parallel_width);
        v("gpu.boundary_transfer_ns", boundary_transfer_ns);
    }

    void validate() const;
};

class GpuTimingModel
{
  public:
    explicit GpuTimingModel(GpuDeviceParams params = GpuDeviceParams());

    /** Device time (ns) to simulate one network cycle of @p routers. */
    double cycleNs(int routers) const;

    /**
     * Device time (ns) for a quantum of @p cycles over @p routers,
     * including the boundary transfer.
     */
    double quantumNs(Tick cycles, int routers) const;

    /**
     * Modelled wall-clock (ns) of a CPU+GPU co-simulation: the device
     * simulates each network quantum while the host simulates the next
     * system quantum, so per quantum the cost is max(host, device).
     *
     * @param host_ns Host time spent on the full-system events of the
     *        whole run.
     * @param quanta Number of quanta the run spanned.
     */
    double overlappedRunNs(double host_ns, std::uint64_t quanta,
                           Tick quantum_cycles, int routers) const;

    const GpuDeviceParams &params() const { return params_; }

  private:
    GpuDeviceParams params_;
};

} // namespace gpu
} // namespace rasim

#endif // RASIM_GPU_GPU_MODEL_HH
