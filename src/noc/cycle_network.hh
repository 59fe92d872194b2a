/**
 * @file
 * The parallel cycle-level NoC, advanced one cycle at a time through an
 * exchangeable execution engine. The network itself is a thin
 * orchestrator — injection heap, aggregate statistics, delivery
 * callbacks — while the per-cycle router/NIC/link state machine lives
 * in its compute backend (see noc/kernel/backend.hh): the soa kernel,
 * or the object oracle that the differential tests inject through
 * the constructor's fabric factory.
 */

#ifndef RASIM_NOC_CYCLE_NETWORK_HH
#define RASIM_NOC_CYCLE_NETWORK_HH

#include <memory>
#include <queue>
#include <vector>

#include "noc/kernel/backend.hh"
#include "noc/network_model.hh"
#include "noc/params.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"
#include "sim/step_engine.hh"
#include "sim/sim_object.hh"
#include "stats/distribution.hh"
#include "stats/stat.hh"

namespace rasim
{

class Simulation;

namespace noc
{

class CycleNetwork : public SimObject, public NetworkModel
{
  public:
    using FabricFactory = kernel::CycleFabricFactory;

    /** @p make_fabric is a test seam: the default builds the soa
     *  kernel, the differentials pass the object oracle. */
    CycleNetwork(Simulation &sim, const std::string &name,
                 const NocParams &params, SimObject *parent = nullptr,
                 FabricFactory make_fabric = kernel::makeCycleFabric);
    ~CycleNetwork() override;

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
    const kernel::CycleFabric &fabric() const { return *fabric_; }

    /** Packets handed to inject() so far. */
    std::uint64_t injectedCount() const { return injected_; }
    /** Packets delivered so far. */
    std::uint64_t deliveredCount() const { return delivered_; }
    /** Packets currently inside the network (or queued for it). */
    std::uint64_t inFlight() const { return injected_ - delivered_; }

    /** Per-router activity counters (power model, tests). */
    kernel::RouterActivity
    routerActivity(std::size_t i) const
    {
        return fabric_->routerActivity(i);
    }

    /** Checkpoint the full fabric state between cycles. */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar);

    /** @name Aggregate statistics */
    /// @{
    stats::Scalar packetsInjected;
    stats::Scalar packetsDelivered;
    stats::Scalar flitsDelivered;
    stats::Scalar cyclesRun;
    stats::Distribution totalLatency;
    stats::Distribution networkLatency;
    stats::Distribution queueLatency;
    stats::Distribution hopCount;
    std::vector<std::unique_ptr<stats::Distribution>> vnetLatency;
    /// @}

  private:
    /** Run exactly one cycle. Stat increments the fabric batches stay
     *  pending until advanceTo() calls flushStats(). */
    void stepCycle();
    void applyDelivery(const PacketPtr &pkt);

    struct InjectOrder
    {
        bool
        operator()(const PacketPtr &a, const PacketPtr &b) const
        {
            if (a->inject_tick != b->inject_tick)
                return a->inject_tick > b->inject_tick; // min-heap
            return a->id > b->id;
        }
    };

    NocParams params_;
    std::unique_ptr<Topology> topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    SerialEngine serial_engine_;
    StepEngine *engine_;

    std::unique_ptr<kernel::CycleFabric> fabric_;
    /** Fault hook: routers whose pipeline is wedged (see
     *  setNodeStalled). Written only between cycles. */
    std::vector<char> stalled_;

    Tick time_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    /** Packets inside the fabric (entered a NIC, not yet delivered). */
    std::uint64_t in_fabric_ = 0;
    std::priority_queue<PacketPtr, std::vector<PacketPtr>, InjectOrder>
        pending_;
    DeliveryHandler handler_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_CYCLE_NETWORK_HH
