#include "noc/deflection_network.hh"

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace rasim
{
namespace noc
{

DeflectionNetwork::DeflectionNetwork(Simulation &sim,
                                     const std::string &name,
                                     const NocParams &params,
                                     SimObject *parent,
                                     FabricFactory make_fabric)
    : DetailedNetwork(sim, name, params, parent),
      flitsDeflected(this, "flits_deflected",
                     "flits denied a productive port"),
      flitsEjected(this, "flits_ejected", "flits ejected at their dst"),
      injectionStalls(this, "injection_stalls",
                      "cycles a flit waited for a free slot"),
      totalLatency(this, "total_latency",
                   "inject-to-deliver latency (cycles)"),
      deflectionsPerFlit(this, "deflections_per_flit",
                         "deflections each flit suffered")
{
    addVnetLatency();
    fabric_ = make_fabric(params_, *topo_);
    inform("network '", name, "': compute kernel ",
           fabric_->description());
}

DeflectionNetwork::~DeflectionNetwork() = default;

void
DeflectionNetwork::admit(const PacketPtr &pkt, Cycle now)
{
    if (pkt->src == pkt->dst) {
        // Mirror the VC network's 2-cycle NIC path.
        pkt->enter_tick = now;
        pkt->hops = 0;
        pkt->deliver_tick = now + 2;
        local_.push_back(pkt);
        return;
    }
    fabric_->enqueue(pkt->src, pkt,
                     params_.flitsPerPacket(pkt->size_bytes));
}

void
DeflectionNetwork::applyDelivery(const PacketPtr &pkt)
{
    totalLatency.sample(static_cast<double>(pkt->latency()));
    deliver(pkt);
}

void
DeflectionNetwork::reduceScratch()
{
    // Folding an untouched scratch slot is the identity, so iterating
    // the backend's (ascending) active-node list accumulates — and
    // float-rounds — exactly like the full 0..n-1 sweep.
    for (int i : fabric_->scratchNodes()) {
        kernel::NodeScratch &s = fabric_->scratch(i);
        flitsDeflected += static_cast<double>(s.deflected);
        injectionStalls += static_cast<double>(s.stalls);
        flitsEjected += static_cast<double>(s.eject_deflections.size());
        for (std::uint32_t d : s.eject_deflections)
            deflectionsPerFlit.sample(d);
        for (const PacketPtr &pkt : s.delivered)
            applyDelivery(pkt);
        s.eject_deflections.clear();
        s.delivered.clear();
        s.deflected = 0;
        s.stalls = 0;
    }
}

void
DeflectionNetwork::runCycle(Cycle now)
{
    // Local packets whose NIC path ends with this cycle.
    while (!local_.empty() && local_.front()->deliver_tick <= now + 1) {
        applyDelivery(local_.front());
        local_.pop_front();
    }

    // Phase 1: eject/inject/route — node i writes only its own
    // arrival set, staging slots, reassembly map and scratch.
    fabric_->route(engine(), now);

    // Phase 2: gather — node j rebuilds its arrival set from its
    // upstream staging slots (sole reader of each slot).
    fabric_->gather(engine());

    // Sequential: fold per-node side effects in fixed index order.
    reduceScratch();
}

void
DeflectionNetwork::save(ArchiveWriter &aw) const
{
    aw.beginSection("deflection_net");
    saveState(aw);
    aw.putU64(local_.size());
    for (const PacketPtr &pkt : local_)
        savePacket(aw, *pkt);
    fabric_->save(aw);
    aw.endSection();
}

void
DeflectionNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("deflection_net");
    restoreState(ar);
    local_.clear();
    std::uint64_t n_local = ar.getU64();
    for (std::uint64_t i = 0; i < n_local; ++i)
        local_.push_back(restorePacket(ar));
    fabric_->restore(ar);
    ar.endSection();
}

} // namespace noc
} // namespace rasim
