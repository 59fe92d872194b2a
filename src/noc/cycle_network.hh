/**
 * @file
 * The buffered virtual-channel NoC (noc.router=vc), advanced one cycle
 * at a time through an exchangeable execution engine. The
 * DetailedNetwork base orchestrates — injection heap, clock, delivery
 * callbacks — this class keeps the VC network's statistics, while the
 * per-cycle router/NIC/link state machine lives in its compute
 * backend (see noc/kernel/backend.hh): the soa kernel,
 * or the object oracle that the differential tests inject through
 * the constructor's fabric factory.
 */

#ifndef RASIM_NOC_CYCLE_NETWORK_HH
#define RASIM_NOC_CYCLE_NETWORK_HH

#include <memory>
#include <vector>

#include "noc/detailed_network.hh"
#include "noc/kernel/backend.hh"
#include "noc/routing.hh"

namespace rasim
{
namespace noc
{

class CycleNetwork : public DetailedNetwork
{
  public:
    using FabricFactory = kernel::CycleFabricFactory;

    /** @p make_fabric is a test seam: the default builds the soa
     *  kernel, the differentials pass the object oracle. */
    CycleNetwork(Simulation &sim, const std::string &name,
                 const NocParams &params, SimObject *parent = nullptr,
                 FabricFactory make_fabric = kernel::makeCycleFabric);
    ~CycleNetwork() override;

    double meanLatency() const override { return totalLatency.mean(); }
    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    /** The compute backend (the soa kernel unless a test injected
     *  another). */
    const kernel::CycleFabric &fabric() const { return *fabric_; }

    /** Per-router activity counters (power model, tests). */
    kernel::RouterActivity
    routerActivity(std::size_t i) const
    {
        return fabric_->routerActivity(i);
    }

    /** @name Aggregate statistics (after the base's packet counts) */
    /// @{
    stats::Scalar flitsDelivered;
    stats::Scalar cyclesRun;
    stats::Distribution totalLatency;
    stats::Distribution networkLatency;
    stats::Distribution queueLatency;
    stats::Distribution hopCount;
    /// @}

  private:
    void admit(const PacketPtr &pkt, Cycle now) override;
    /** Stat increments the fabric batches stay pending until
     *  endAdvance() calls flushStats(). */
    void runCycle(Cycle now) override;
    void endAdvance() override;
    void applyDelivery(const PacketPtr &pkt);

    std::unique_ptr<RoutingAlgorithm> routing_;
    std::unique_ptr<kernel::CycleFabric> fabric_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_CYCLE_NETWORK_HH
