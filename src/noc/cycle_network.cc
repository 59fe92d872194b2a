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

    stalled_.assign(topo_->numNodes(), 0);
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

bool
CycleNetwork::setNodeStalled(std::size_t node, bool stalled)
{
    if (node >= stalled_.size())
        fatal("cycle network: cannot stall node ", node, " of ",
              stalled_.size());
    stalled_[node] = stalled ? 1 : 0;
    return true;
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
    // A stalled router freezes mid-pipeline: it neither allocates nor
    // returns credits, so upstream backpressure builds into a genuine
    // deadlock the watchdog has to catch.
    fabric_->compute(*engine_, now, stalled_);

    // Phase 2: buffer writes and credit returns (pops incoming links).
    fabric_->commit(*engine_, now, stalled_);

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
CycleNetwork::advanceTo(Tick t)
{
    // Fold the fabric's batched stat increments once per call, also
    // when a delivery handler or a fabric check throws mid-way, so no
    // reader outside advanceTo ever sees a pending increment.
    struct FlushStats
    {
        kernel::CycleFabric &fabric;
        ~FlushStats() { fabric.flushStats(); }
    } flush{*fabric_};

    while (time_ < t) {
        // Fast-forward through provably idle stretches: nothing in the
        // fabric and no injection due before the horizon.
        if (in_fabric_ == 0) {
            Tick next = pending_.empty() ? t : pending_.top()->inject_tick;
            if (next > time_) {
                time_ = std::min(t, next);
                if (time_ >= t)
                    break;
                continue;
            }
        }
        stepCycle();
    }
}

void
CycleNetwork::save(ArchiveWriter &aw) const
{
    aw.beginSection("cycle_net");
    aw.putU64(time_);
    aw.putU64(injected_);
    aw.putU64(delivered_);
    aw.putU64(in_fabric_);
    for (char s : stalled_)
        aw.putU8(static_cast<std::uint8_t>(s));

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
    for (char &s : stalled_)
        s = static_cast<char>(ar.getU8());

    pending_ = {};
    std::uint64_t n_pending = ar.getU64();
    for (std::uint64_t i = 0; i < n_pending; ++i)
        pending_.push(restorePacket(ar));

    fabric_->restore(ar);
    ar.endSection();
}

} // namespace noc
} // namespace rasim
