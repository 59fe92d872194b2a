#include "noc/cycle_network.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace rasim
{
namespace noc
{

CycleNetwork::CycleNetwork(Simulation &sim, const std::string &name,
                           const NocParams &params, SimObject *parent,
                           FabricFactory make_fabric)
    : DetailedNetwork(sim, name, params, parent),
      flitsDelivered(this, "flits_delivered", "flits fully received"),
      cyclesRun(this, "cycles_run", "network cycles simulated"),
      totalLatency(this, "total_latency",
                   "inject-to-deliver latency (cycles)"),
      networkLatency(this, "network_latency",
                     "fabric enter-to-deliver latency (cycles)"),
      queueLatency(this, "queue_latency",
                   "source queueing latency (cycles)"),
      hopCount(this, "hop_count", "router-to-router hops per packet"),
      routing_(makeRouting(params_.routing))
{
    addVnetLatency();
    fabric_ = make_fabric(this, params_, *topo_, *routing_);
    inform("network '", name, "': compute kernel ",
           fabric_->description());
}

CycleNetwork::~CycleNetwork() = default;

void
CycleNetwork::admit(const PacketPtr &pkt, Cycle now)
{
    fabric_->enqueue(pkt->src, pkt, now);
}

void
CycleNetwork::applyDelivery(const PacketPtr &pkt)
{
    flitsDelivered += params_.flitsPerPacket(pkt->size_bytes);
    totalLatency.sample(static_cast<double>(pkt->latency()));
    networkLatency.sample(static_cast<double>(pkt->networkLatency()));
    queueLatency.sample(static_cast<double>(pkt->queueLatency()));
    hopCount.sample(static_cast<double>(pkt->hops));
    deliver(pkt);
}

void
CycleNetwork::runCycle(Cycle now)
{
    // Phase 1: allocation and traversal (pushes onto outgoing links).
    fabric_->compute(engine(), now);

    // Phase 2: buffer writes and credit returns (pops incoming links).
    fabric_->commit(engine(), now);

    // Sequential: fire delivery callbacks in node order.
    for (int i : fabric_->completedNodes()) {
        std::vector<PacketPtr> &done = fabric_->completed(i);
        for (const PacketPtr &pkt : done)
            applyDelivery(pkt);
        done.clear();
    }
    ++cyclesRun;
}

void
CycleNetwork::endAdvance()
{
    // Fold the fabric's batched stat increments once per advance (and
    // move the soa kernel's node-range cut with them), after any
    // stepTo() pieces that led up to it.
    fabric_->flushStats();
}

void
CycleNetwork::save(ArchiveWriter &aw) const
{
    aw.beginSection("cycle_net");
    saveState(aw);
    fabric_->save(aw);
    aw.endSection();
}

void
CycleNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("cycle_net");
    restoreState(ar);
    fabric_->restore(ar);
    ar.endSection();
}

} // namespace noc
} // namespace rasim
