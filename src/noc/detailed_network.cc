#include "noc/detailed_network.hh"

#include <algorithm>

#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace noc
{

DetailedNetwork::DetailedNetwork(Simulation &sim, const std::string &name,
                                 const NocParams &params,
                                 SimObject *parent)
    : SimObject(sim, name, parent),
      packetsInjected(this, "packets_injected",
                      "packets handed to the network"),
      packetsDelivered(this, "packets_delivered",
                       "packets fully received"),
      params_(params), engine_(&serial_engine_)
{
    params_.validate();
    topo_ = makeTopology(params_.topology, params_.columns, params_.rows);
}

DetailedNetwork::~DetailedNetwork() = default;

void
DetailedNetwork::addVnetLatency()
{
    for (int v = 0; v < num_vnets; ++v) {
        vnetLatency.push_back(std::make_unique<stats::Distribution>(
            this, std::string("latency_vnet") + std::to_string(v),
            "total latency on vnet " + std::to_string(v)));
    }
}

void
DetailedNetwork::inject(const PacketPtr &pkt)
{
    if (pkt->src >= numNodes() || pkt->dst >= numNodes())
        fatal("packet ", pkt->toString(), " references nodes outside a ",
              topo_->name(), " network");
    ++injected_;
    ++packetsInjected;
    pending_.push(pkt);
}

std::optional<NetworkModel::Accounting>
DetailedNetwork::accounting() const
{
    // in_flight is rebuilt from the real structures (injection heap +
    // fabric-resident packets), not from injected - delivered, so a
    // bookkeeping bug is visible as a conservation violation.
    Accounting acc;
    acc.injected = injected_;
    acc.delivered = delivered_;
    acc.in_flight = pending_.size() + in_fabric_;
    return acc;
}

void
DetailedNetwork::deliver(const PacketPtr &pkt)
{
    ++delivered_;
    --in_fabric_;
    ++packetsDelivered;
    vnetLatency[static_cast<int>(pkt->cls)]->sample(
        static_cast<double>(pkt->latency()));
    if (handler_)
        handler_(pkt);
}

void
DetailedNetwork::stepCycle()
{
    Cycle now = time_;

    // Packets whose injection tick has arrived enter the fabric. Late
    // packets (overlapped co-simulation) enter now; the slip shows up
    // as source queueing latency.
    while (!pending_.empty() && pending_.top()->inject_tick <= now) {
        admit(pending_.top(), now);
        ++in_fabric_;
        pending_.pop();
    }
    runCycle(now);
    ++time_;
}

void
DetailedNetwork::stepTo(Tick t)
{
    try {
        while (time_ < t) {
            // Fast-forward through provably idle stretches: nothing in
            // the fabric and no injection due before the horizon.
            if (in_fabric_ == 0) {
                Tick next =
                    pending_.empty() ? t : pending_.top()->inject_tick;
                if (next > time_) {
                    time_ = std::min(t, next);
                    continue;
                }
            }
            stepCycle();
        }
    } catch (...) {
        // A throwing delivery handler or fabric check ends the
        // advance here: fold the batched work now, so no reader
        // outside an advance ever sees a pending increment.
        endAdvance();
        throw;
    }
}

void
DetailedNetwork::advanceTo(Tick t)
{
    stepTo(t);
    endAdvance();
}

void
DetailedNetwork::saveState(ArchiveWriter &aw) const
{
    aw.putU64(time_);
    aw.putU64(injected_);
    aw.putU64(delivered_);
    aw.putU64(in_fabric_);

    // Drain a copy of the injection heap in order (the heap does not
    // expose its container).
    auto pending = pending_;
    aw.putU64(pending.size());
    while (!pending.empty()) {
        savePacket(aw, *pending.top());
        pending.pop();
    }
}

void
DetailedNetwork::restoreState(ArchiveReader &ar)
{
    time_ = ar.getU64();
    injected_ = ar.getU64();
    delivered_ = ar.getU64();
    in_fabric_ = ar.getU64();

    pending_ = {};
    std::uint64_t n_pending = ar.getU64();
    for (std::uint64_t i = 0; i < n_pending; ++i)
        pending_.push(restorePacket(ar));
}

std::unique_ptr<DetailedNetwork>
makeDetailedNetwork(Simulation &sim, const std::string &name,
                    const NocParams &params)
{
    switch (params.router) {
      case RouterKind::Vc:
        return std::make_unique<CycleNetwork>(sim, name, params);
      case RouterKind::Deflection:
        return std::make_unique<DeflectionNetwork>(sim, name, params);
    }
    fatal("unknown noc.router");
}

} // namespace noc
} // namespace rasim
