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
 * bufferless formulation.
 *
 * Like CycleNetwork, the network is a thin orchestrator over its
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

#include <memory>
#include <queue>
#include <vector>

#include "noc/kernel/backend.hh"
#include "noc/network_model.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "noc/topology.hh"
#include "sim/sim_object.hh"
#include "sim/step_engine.hh"
#include "stats/distribution.hh"
#include "stats/stat.hh"

namespace rasim
{

class Simulation;

namespace noc
{

class DeflectionNetwork : public SimObject, public NetworkModel
{
  public:
    using FabricFactory = kernel::DeflectFabricFactory;

    /**
     * Uses NocParams for geometry, link width and per-hop latency
     * (pipeline_stages); buffering/VC parameters are ignored — the
     * whole point of the organisation. @p make_fabric is a test
     * seam: the default builds the soa kernel, the differentials pass
     * the object oracle.
     */
    DeflectionNetwork(Simulation &sim, const std::string &name,
                      const NocParams &params,
                      SimObject *parent = nullptr,
                      FabricFactory make_fabric =
                          kernel::makeDeflectFabric);
    ~DeflectionNetwork() override;

    // NetworkModel interface.
    void inject(const PacketPtr &pkt) override;
    void advanceTo(Tick t) override;
    void setDeliveryHandler(DeliveryHandler handler) override;
    Tick curTime() const override { return time_; }
    bool idle() const override;
    std::size_t numNodes() const override;
    std::optional<Accounting> accounting() const override;
    bool setNodeStalled(std::size_t node, bool stalled) override;

    /**
     * Replace the execution engine (default: SerialEngine). The
     * network does not own the engine; it must outlive the network's
     * last advanceTo().
     */
    void setEngine(StepEngine *engine) override;

    const NocParams &params() const { return params_; }
    const Topology &topology() const { return *topo_; }

    /** The compute backend (the soa kernel unless a test injected
     *  another). */
    const kernel::DeflectFabric &fabric() const { return *fabric_; }

    /** Checkpoint the full fabric state between cycles. */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar);

    stats::Scalar packetsInjected;
    stats::Scalar packetsDelivered;
    stats::Scalar flitsDeflected;
    stats::Scalar flitsEjected;
    stats::Scalar injectionStalls;
    stats::Distribution totalLatency;
    stats::Distribution deflectionsPerFlit;

  private:
    void stepCycle();
    /** Fold scratch into stats/deliveries in node index order. */
    void reduceScratch(Cycle now);

    NocParams params_;
    std::unique_ptr<Topology> topo_;
    SerialEngine serial_engine_;
    StepEngine *engine_;

    std::unique_ptr<kernel::DeflectFabric> fabric_;
    /** Fault hook: nodes whose ejection port is wedged — their flits
     *  circulate forever (livelock). Written only between cycles. */
    std::vector<char> stalled_;

    struct InjectOrder
    {
        bool
        operator()(const PacketPtr &a, const PacketPtr &b) const
        {
            if (a->inject_tick != b->inject_tick)
                return a->inject_tick > b->inject_tick;
            return a->id > b->id;
        }
    };
    std::priority_queue<PacketPtr, std::vector<PacketPtr>, InjectOrder>
        pending_;

    Tick time_ = 0;
    std::uint64_t in_fabric_flits_ = 0;
    std::uint64_t queued_flits_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t injected_ = 0;
    DeliveryHandler handler_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_DEFLECTION_NETWORK_HH
