#include "noc/cycle_network.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace noc
{

CycleNetwork::CycleNetwork(Simulation &sim, const std::string &name,
                           const NocParams &params, SimObject *parent,
                           FabricFactory make_fabric)
    : SimObject(sim, name, parent),
      packetsInjected(this, "packets_injected",
                      "packets handed to the network"),
      packetsDelivered(this, "packets_delivered",
                       "packets fully received"),
      flitsDelivered(this, "flits_delivered", "flits fully received"),
      cyclesRun(this, "cycles_run", "network cycles simulated"),
      totalLatency(this, "total_latency",
                   "inject-to-deliver latency (cycles)"),
      networkLatency(this, "network_latency",
                     "fabric enter-to-deliver latency (cycles)"),
      queueLatency(this, "queue_latency",
                   "source queueing latency (cycles)"),
      hopCount(this, "hop_count", "router-to-router hops per packet"),
      params_(params), engine_(&serial_engine_)
{
    params_.validate();
    topo_ = makeTopology(params_.topology, params_.columns, params_.rows);
    routing_ = makeRouting(params_.routing);

    for (int v = 0; v < num_vnets; ++v) {
        vnetLatency.push_back(std::make_unique<stats::Distribution>(
            this, std::string("latency_vnet") + std::to_string(v),
            "total latency on vnet " + std::to_string(v)));
    }

    fabric_ = make_fabric(this, params_, *topo_, *routing_);
    inform("network '", name, "': compute kernel ",
           fabric_->description());
}

CycleNetwork::~CycleNetwork() = default;

void
CycleNetwork::setEngine(StepEngine *engine)
{
    engine_ = engine ? engine : &serial_engine_;
}

std::size_t
CycleNetwork::numNodes() const
{
    return static_cast<std::size_t>(topo_->numNodes());
}

void
CycleNetwork::inject(const PacketPtr &pkt)
{
    if (pkt->src >= numNodes() || pkt->dst >= numNodes())
        fatal("packet ", pkt->toString(), " references nodes outside a ",
              topo_->name(), " network");
    ++injected_;
    ++packetsInjected;
    pending_.push(pkt);
}

void
CycleNetwork::setDeliveryHandler(DeliveryHandler handler)
{
    handler_ = std::move(handler);
}

bool
CycleNetwork::idle() const
{
    return injected_ == delivered_ && pending_.empty();
}

std::optional<noc::NetworkModel::Accounting>
CycleNetwork::accounting() const
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
CycleNetwork::applyDelivery(const PacketPtr &pkt)
{
    ++delivered_;
    --in_fabric_;
    ++packetsDelivered;
    flitsDelivered += params_.flitsPerPacket(pkt->size_bytes);
    totalLatency.sample(static_cast<double>(pkt->latency()));
    networkLatency.sample(static_cast<double>(pkt->networkLatency()));
    queueLatency.sample(static_cast<double>(pkt->queueLatency()));
    hopCount.sample(static_cast<double>(pkt->hops));
    vnetLatency[static_cast<int>(pkt->cls)]->sample(
        static_cast<double>(pkt->latency()));
    if (handler_)
        handler_(pkt);
}

void
CycleNetwork::stepCycle()
{
    Cycle now = time_;

    // Sequential: packets whose injection tick has arrived enter the
    // NIC queues. Late packets (overlapped co-simulation) enter now;
    // the slip shows up as source queueing latency.
    while (!pending_.empty() && pending_.top()->inject_tick <= now) {
        const PacketPtr &pkt = pending_.top();
        fabric_->enqueue(pkt->src, pkt, now);
        ++in_fabric_;
        pending_.pop();
    }

    // Phase 1: allocation and traversal (pushes onto outgoing links).
    fabric_->compute(*engine_, now);

    // Phase 2: buffer writes and credit returns (pops incoming links).
    fabric_->commit(*engine_, now);

    // Sequential: fire delivery callbacks in node order.
    for (int i : fabric_->completedNodes()) {
        std::vector<PacketPtr> &done = fabric_->completed(i);
        for (const PacketPtr &pkt : done)
            applyDelivery(pkt);
        done.clear();
    }

    ++time_;
    ++cyclesRun;
}

void
CycleNetwork::stepTo(Tick t)
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
                    if (time_ >= t)
                        break;
                    continue;
                }
            }
            stepCycle();
        }
    } catch (...) {
        // A throwing delivery handler or fabric check ends the
        // advance here: fold the batched stat increments now, so no
        // reader outside an advance ever sees a pending increment.
        fabric_->flushStats();
        throw;
    }
}

void
CycleNetwork::advanceTo(Tick t)
{
    // Fold the fabric's batched stat increments once per call (and
    // move the soa kernel's node-range cut with them), after any
    // stepTo() pieces that led up to it.
    stepTo(t);
    fabric_->flushStats();
}

void
CycleNetwork::save(ArchiveWriter &aw) const
{
    aw.beginSection("cycle_net");
    aw.putU64(time_);
    aw.putU64(injected_);
    aw.putU64(delivered_);
    aw.putU64(in_fabric_);

    // Drain a copy of the injection heap in order (the heap does not
    // expose its container).
    auto pending = pending_;
    std::vector<PacketPtr> queued;
    queued.reserve(pending.size());
    while (!pending.empty()) {
        queued.push_back(pending.top());
        pending.pop();
    }
    aw.putU64(queued.size());
    for (const PacketPtr &pkt : queued)
        savePacket(aw, *pkt);

    fabric_->save(aw);
    aw.endSection();
}

void
CycleNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("cycle_net");
    time_ = ar.getU64();
    injected_ = ar.getU64();
    delivered_ = ar.getU64();
    in_fabric_ = ar.getU64();

    pending_ = {};
    std::uint64_t n_pending = ar.getU64();
    for (std::uint64_t i = 0; i < n_pending; ++i)
        pending_.push(restorePacket(ar));

    fabric_->restore(ar);
    ar.endSection();
}

} // namespace noc
} // namespace rasim
