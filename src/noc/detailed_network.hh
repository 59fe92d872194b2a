/**
 * @file
 * The detailed (cycle-level) network: one orchestrator shared by both
 * router organisations. It owns what they have in common — the
 * injection heap, the clock with its idle fast-forward, the engine
 * slot, packet accounting and the delivery handler — and a subclass
 * supplies the fabric: CycleNetwork (buffered VC routers) or
 * DeflectionNetwork (bufferless deflection routers). noc.router picks
 * one through makeDetailedNetwork(), the only place that chooses,
 * whether the network runs in-process or in a rasim-nocd session.
 */

#ifndef RASIM_NOC_DETAILED_NETWORK_HH
#define RASIM_NOC_DETAILED_NETWORK_HH

#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "noc/network_model.hh"
#include "noc/params.hh"
#include "noc/topology.hh"
#include "sim/sim_object.hh"
#include "sim/step_engine.hh"
#include "stats/distribution.hh"
#include "stats/stat.hh"

namespace rasim
{

class ArchiveReader;
class ArchiveWriter;
class Simulation;

namespace noc
{

class DetailedNetwork : public SimObject, public NetworkModel
{
  public:
    ~DetailedNetwork() override;

    // NetworkModel interface.
    void inject(const PacketPtr &pkt) override;
    void advanceTo(Tick t) override;
    bool pipelinable() const override { return true; }
    void stepTo(Tick t) override;
    Tick curTime() const override { return time_; }
    std::optional<Accounting> accounting() const override;

    void
    setDeliveryHandler(DeliveryHandler handler) override
    {
        handler_ = std::move(handler);
    }

    bool
    idle() const override
    {
        return pending_.empty() && in_fabric_ == 0;
    }

    std::size_t
    numNodes() const override
    {
        return static_cast<std::size_t>(topo_->numNodes());
    }

    /**
     * Replace the execution engine (default: SerialEngine). The
     * network does not own the engine; it must outlive the network's
     * last advanceTo().
     */
    void
    setEngine(StepEngine *engine) override
    {
        engine_ = engine ? engine : &serial_engine_;
    }

    const NocParams &params() const { return params_; }
    const Topology &topology() const { return *topo_; }

    /** Packets delivered so far. */
    std::uint64_t deliveredCount() const { return delivered_; }

    /** Mean inject-to-deliver latency of the packets delivered. */
    virtual double meanLatency() const = 0;

    /** Checkpoint the whole network state between cycles. */
    virtual void save(ArchiveWriter &aw) const = 0;
    virtual void restore(ArchiveReader &ar) = 0;

    stats::Scalar packetsInjected;
    stats::Scalar packetsDelivered;
    /** Total latency per vnet; a subclass registers them after its
     *  own statistics (addVnetLatency). */
    std::vector<std::unique_ptr<stats::Distribution>> vnetLatency;

  protected:
    DetailedNetwork(Simulation &sim, const std::string &name,
                    const NocParams &params, SimObject *parent);

    /** Hand a packet whose injection tick has come to the fabric at
     *  cycle @p now; it is resident until deliver() reports it. */
    virtual void admit(const PacketPtr &pkt, Cycle now) = 0;
    /** Run cycle @p now, reporting every packet received in it
     *  through deliver(). */
    virtual void runCycle(Cycle now) = 0;
    /** Once per advanceTo(), and when an advance throws: fold what
     *  the fabric batched. */
    virtual void endAdvance() {}

    /** Count a received packet and hand it to the delivery handler. */
    void deliver(const PacketPtr &pkt);
    /** Register the latency_vnet<v> distributions. */
    void addVnetLatency();
    /** The clock, packet counts and injection heap, in that order. */
    void saveState(ArchiveWriter &aw) const;
    void restoreState(ArchiveReader &ar);

    StepEngine &engine() const { return *engine_; }

    NocParams params_;
    std::unique_ptr<Topology> topo_;

  private:
    void stepCycle();

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

    SerialEngine serial_engine_;
    StepEngine *engine_;
    Tick time_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    /** Packets admitted to the fabric and not yet delivered. */
    std::uint64_t in_fabric_ = 0;
    std::priority_queue<PacketPtr, std::vector<PacketPtr>, InjectOrder>
        pending_;
    DeliveryHandler handler_;
};

/** The detailed network params.router names: the one place a router
 *  organisation is chosen. */
std::unique_ptr<DetailedNetwork>
makeDetailedNetwork(Simulation &sim, const std::string &name,
                    const NocParams &params);

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_DETAILED_NETWORK_HH
