/**
 * @file
 * Bufferless deflection-routed (hot-potato) network — the alternative
 * detailed router organisation from the NoC literature (cf. BLESS /
 * DNOC). Flits never wait in router buffers: each cycle every router
 * permutes its arriving flits onto distinct output ports, oldest flit
 * first; flits that lose their productive port are deflected and try
 * again elsewhere. Oldest-first arbitration makes the scheme
 * livelock-free.
 *
 * Packets travel as independent single-flit "worms" (each flit routes
 * alone and is reassembled at the destination NIC), the classic
 * bufferless formulation. A packet to its own node bypasses the fabric
 * (there is no port to traverse) and waits out the VC network's
 * two-cycle NIC path, so it is delivered at its deliver_tick like
 * every other packet.
 *
 * Like CycleNetwork, the network is a DetailedNetwork over its
 * compute backend (see noc/kernel/backend.hh): the soa kernel, or the
 * object oracle the differential tests inject. The per-cycle update
 * is phase-structured so an exchangeable StepEngine can run it
 * data-parallel and bit-identical to serial execution: a route phase
 * in which node i consumes its own arrival set and writes only its
 * own per-port output staging, a gather phase in which node j pulls
 * from its upstream neighbours' staging in a fixed order, and a
 * sequential reduction that folds per-node scratch (stats,
 * deliveries, counters) in node-index order.
 */

#ifndef RASIM_NOC_DEFLECTION_NETWORK_HH
#define RASIM_NOC_DEFLECTION_NETWORK_HH

#include <deque>
#include <memory>

#include "noc/detailed_network.hh"
#include "noc/kernel/backend.hh"

namespace rasim
{
namespace noc
{

class DeflectionNetwork : public DetailedNetwork
{
  public:
    using FabricFactory = kernel::DeflectFabricFactory;

    /**
     * Uses NocParams for geometry, link width and per-hop latency
     * (pipeline_stages); buffering/VC parameters are validated like
     * the VC network's but ignored — the whole point of the
     * organisation. @p make_fabric is a test seam: the default builds
     * the soa kernel, the differentials pass the object oracle.
     */
    DeflectionNetwork(Simulation &sim, const std::string &name,
                      const NocParams &params,
                      SimObject *parent = nullptr,
                      FabricFactory make_fabric =
                          kernel::makeDeflectFabric);
    ~DeflectionNetwork() override;

    double meanLatency() const override { return totalLatency.mean(); }
    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    /** The compute backend (the soa kernel unless a test injected
     *  another). */
    const kernel::DeflectFabric &fabric() const { return *fabric_; }

    stats::Scalar flitsDeflected;
    stats::Scalar flitsEjected;
    stats::Scalar injectionStalls;
    stats::Distribution totalLatency;
    stats::Distribution deflectionsPerFlit;

  private:
    void admit(const PacketPtr &pkt, Cycle now) override;
    void runCycle(Cycle now) override;
    /** Fold scratch into stats/deliveries in node index order. */
    void reduceScratch();
    void applyDelivery(const PacketPtr &pkt);

    std::unique_ptr<kernel::DeflectFabric> fabric_;
    /** Local (src == dst) packets waiting out their NIC path, in
     *  deliver_tick order. */
    std::deque<PacketPtr> local_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_DEFLECTION_NETWORK_HH
