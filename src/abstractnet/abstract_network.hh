/**
 * @file
 * The coarse network model the full-system simulator uses on its own:
 * analytical latency per packet, no routers, no flits. In Tuned mode
 * the latency comes from the reciprocal LatencyTable instead of the
 * static contention formula.
 */

#ifndef RASIM_ABSTRACTNET_ABSTRACT_NETWORK_HH
#define RASIM_ABSTRACTNET_ABSTRACT_NETWORK_HH

#include <memory>
#include <queue>
#include <vector>

#include "abstractnet/latency_table.hh"
#include "noc/network_model.hh"
#include "noc/params.hh"
#include "noc/topology.hh"
#include "sim/sim_object.hh"
#include "stats/distribution.hh"
#include "stats/stat.hh"

namespace rasim
{

class Simulation;

namespace abstractnet
{

class AbstractNetwork : public SimObject, public noc::NetworkModel
{
  public:
    enum class Mode
    {
        /** Zero-load + analytical M/D/1 contention (no feedback). */
        Static,
        /** Latency from the reciprocally tuned LatencyTable. */
        Tuned,
    };

    /**
     * @param params The *target* network's parameters: topology for
     *        hop counts, flit width for serialisation, pipeline/link
     *        latencies for the zero-load seed.
     * @param abstract Table EWMA weight and granularity, and the
     *        Static contention term's window and cap.
     */
    AbstractNetwork(Simulation &sim, const std::string &name,
                    const noc::NocParams &params, Mode mode,
                    const AbstractParams &abstract = {},
                    SimObject *parent = nullptr);
    ~AbstractNetwork() override;

    // NetworkModel interface.
    void inject(const noc::PacketPtr &pkt) override;
    void advanceTo(Tick t) override;
    void setDeliveryHandler(DeliveryHandler handler) override;
    Tick curTime() const override { return time_; }
    bool idle() const override { return in_flight_.empty(); }
    std::size_t numNodes() const override;
    std::optional<Accounting> accounting() const override;

    Mode mode() const { return mode_; }

    /** The reciprocal feedback target (shared with the bridge). */
    LatencyTable &table() { return table_; }
    const LatencyTable &table() const { return table_; }

    const noc::Topology &topology() const { return *topo_; }

    /**
     * Estimated utilisation of the network channels in [0, 1],
     * computed from a sliding window of injected flit-hops (Static
     * mode's contention input).
     */
    double utilization() const;

    /** Checkpoint in-flight packets, load window and tuned table. */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar);

    stats::Scalar packetsInjected;
    stats::Scalar packetsDelivered;
    stats::Distribution totalLatency;
    std::vector<std::unique_ptr<stats::Distribution>> vnetLatency;

  private:
    Tick latencyFor(const noc::PacketPtr &pkt) const;
    void accountLoad(const noc::PacketPtr &pkt);

    struct DeliverOrder
    {
        bool
        operator()(const noc::PacketPtr &a, const noc::PacketPtr &b) const
        {
            if (a->deliver_tick != b->deliver_tick)
                return a->deliver_tick > b->deliver_tick;
            return a->id > b->id;
        }
    };

    noc::NocParams params_;
    Mode mode_;
    std::unique_ptr<noc::Topology> topo_;
    LatencyTable table_;

    Tick time_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t delivered_ = 0;
    std::priority_queue<noc::PacketPtr, std::vector<noc::PacketPtr>,
                        DeliverOrder>
        in_flight_;
    DeliveryHandler handler_;

    /** Sliding-window load accounting for the contention term. */
    Tick window_;
    double contention_cap_;
    std::uint64_t num_channels_;
    Tick window_start_ = 0;
    double window_flit_hops_ = 0.0;
    double rho_ = 0.0;
};

} // namespace abstractnet
} // namespace rasim

#endif // RASIM_ABSTRACTNET_ABSTRACT_NETWORK_HH
