#include "abstractnet/abstract_network.hh"

#include <algorithm>
#include <cmath>

#include "abstractnet/latency_model.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace abstractnet
{

namespace
{

/** Unidirectional router-to-router channels in the topology. */
std::uint64_t
countChannels(const noc::Topology &topo)
{
    std::uint64_t n = 0;
    for (int i = 0; i < topo.numNodes(); ++i)
        for (int p = 1; p < topo.numPorts(); ++p)
            if (topo.neighbor(i, p) >= 0)
                ++n;
    return n;
}

} // namespace

AbstractNetwork::AbstractNetwork(Simulation &sim, const std::string &name,
                                 const noc::NocParams &params, Mode mode,
                                 const AbstractParams &abstract,
                                 SimObject *parent)
    : SimObject(sim, name, parent),
      packetsInjected(this, "packets_injected",
                      "packets handed to the abstract model"),
      packetsDelivered(this, "packets_delivered",
                       "packets delivered by the abstract model"),
      totalLatency(this, "total_latency",
                   "modelled inject-to-deliver latency (cycles)"),
      params_(params), mode_(mode),
      topo_(noc::makeTopology(params.topology, params.columns,
                              params.rows)),
      table_(params,
             topo_->minHops(0, static_cast<NodeId>(topo_->numNodes() - 1)) +
                 topo_->columns() + topo_->rows(),
             abstract.ewma_alpha, abstract.granularity, topo_->numNodes()),
      window_(abstract.window), contention_cap_(abstract.contention_cap),
      num_channels_(countChannels(*topo_))
{
    if (window_ == 0)
        fatal("abstract.window must be positive");
    for (int v = 0; v < noc::num_vnets; ++v) {
        vnetLatency.push_back(std::make_unique<stats::Distribution>(
            this, std::string("latency_vnet") + std::to_string(v),
            "total latency on vnet " + std::to_string(v)));
    }
}

AbstractNetwork::~AbstractNetwork() = default;

std::size_t
AbstractNetwork::numNodes() const
{
    return static_cast<std::size_t>(topo_->numNodes());
}

std::optional<noc::NetworkModel::Accounting>
AbstractNetwork::accounting() const
{
    Accounting acc;
    acc.injected = injected_;
    acc.delivered = delivered_;
    acc.in_flight = in_flight_.size();
    return acc;
}

double
AbstractNetwork::utilization() const
{
    return rho_;
}

void
AbstractNetwork::accountLoad(const noc::PacketPtr &pkt)
{
    // Advance the window, decaying the utilisation estimate once per
    // elapsed window.
    while (time_ >= window_start_ + window_) {
        double w = static_cast<double>(window_) *
                   static_cast<double>(num_channels_);
        rho_ = 0.5 * rho_ + 0.5 * std::min(1.0, window_flit_hops_ / w);
        window_flit_hops_ = 0.0;
        window_start_ += window_;
    }
    int hops = topo_->minHops(pkt->src, pkt->dst);
    window_flit_hops_ += static_cast<double>(
        params_.flitsPerPacket(pkt->size_bytes) * (hops + 1));
}

Tick
AbstractNetwork::latencyFor(const noc::PacketPtr &pkt) const
{
    int hops = topo_->minHops(pkt->src, pkt->dst);
    std::uint32_t flits = params_.flitsPerPacket(pkt->size_bytes);
    if (mode_ == Mode::Tuned) {
        double est = table_.estimate(static_cast<int>(pkt->cls), hops,
                                     flits, pkt->src, pkt->dst);
        return static_cast<Tick>(std::llround(est));
    }
    Tick base = zeroLoadLatency(params_, hops, flits);
    double queueing =
        contentionDelay(rho_, contention_cap_) * (hops + 1);
    return base + static_cast<Tick>(std::llround(queueing));
}

void
AbstractNetwork::inject(const noc::PacketPtr &pkt)
{
    if (pkt->src >= numNodes() || pkt->dst >= numNodes())
        fatal("packet ", pkt->toString(),
              " references nodes outside the abstract network");
    ++packetsInjected;
    ++injected_;
    Tick start = std::max(pkt->inject_tick, time_);
    accountLoad(pkt);
    pkt->enter_tick = start;
    pkt->hops = static_cast<std::uint32_t>(
        topo_->minHops(pkt->src, pkt->dst));
    pkt->deliver_tick = start + latencyFor(pkt);
    in_flight_.push(pkt);
}

void
AbstractNetwork::setDeliveryHandler(DeliveryHandler handler)
{
    handler_ = std::move(handler);
}

void
AbstractNetwork::advanceTo(Tick t)
{
    while (!in_flight_.empty() &&
           in_flight_.top()->deliver_tick <= t) {
        noc::PacketPtr pkt = in_flight_.top();
        in_flight_.pop();
        time_ = std::max(time_, pkt->deliver_tick);
        ++packetsDelivered;
        ++delivered_;
        totalLatency.sample(static_cast<double>(pkt->latency()));
        vnetLatency[static_cast<int>(pkt->cls)]->sample(
            static_cast<double>(pkt->latency()));
        if (handler_)
            handler_(pkt);
    }
    time_ = std::max(time_, t);
}

void
AbstractNetwork::save(ArchiveWriter &aw) const
{
    aw.beginSection("abstract_net");
    aw.putU64(time_);
    aw.putU64(injected_);
    aw.putU64(delivered_);
    aw.putU64(window_start_);
    aw.putDouble(window_flit_hops_);
    aw.putDouble(rho_);

    auto in_flight = in_flight_;
    std::vector<noc::PacketPtr> pkts;
    pkts.reserve(in_flight.size());
    while (!in_flight.empty()) {
        pkts.push_back(in_flight.top());
        in_flight.pop();
    }
    aw.putU64(pkts.size());
    for (const noc::PacketPtr &pkt : pkts)
        noc::savePacket(aw, *pkt);

    table_.saveBinary(aw);
    aw.endSection();
}

void
AbstractNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("abstract_net");
    time_ = ar.getU64();
    injected_ = ar.getU64();
    delivered_ = ar.getU64();
    window_start_ = ar.getU64();
    window_flit_hops_ = ar.getDouble();
    rho_ = ar.getDouble();

    in_flight_ = {};
    std::uint64_t n = ar.getU64();
    for (std::uint64_t i = 0; i < n; ++i)
        in_flight_.push(noc::restorePacket(ar));

    table_.restoreBinary(ar);
    ar.endSection();
}

} // namespace abstractnet
} // namespace rasim
