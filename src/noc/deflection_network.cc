#include "noc/deflection_network.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace noc
{

DeflectionNetwork::DeflectionNetwork(Simulation &sim,
                                     const std::string &name,
                                     const NocParams &params,
                                     SimObject *parent,
                                     FabricFactory make_fabric)
    : SimObject(sim, name, parent),
      packetsInjected(this, "packets_injected",
                      "packets handed to the network"),
      packetsDelivered(this, "packets_delivered",
                       "packets fully received"),
      flitsDeflected(this, "flits_deflected",
                     "flits denied a productive port"),
      flitsEjected(this, "flits_ejected", "flits ejected at their dst"),
      injectionStalls(this, "injection_stalls",
                      "cycles a flit waited for a free slot"),
      totalLatency(this, "total_latency",
                   "inject-to-deliver latency (cycles)"),
      deflectionsPerFlit(this, "deflections_per_flit",
                         "deflections each flit suffered"),
      params_(params), engine_(&serial_engine_)
{
    if (params_.topology != "mesh" && params_.topology != "torus")
        fatal("deflection network needs a mesh or torus topology");
    topo_ = makeTopology(params_.topology, params_.columns,
                         params_.rows);
    stalled_.assign(topo_->numNodes(), 0);
    fabric_ = make_fabric(params_, *topo_);
    inform("network '", name, "': compute kernel ",
           fabric_->description());
}

DeflectionNetwork::~DeflectionNetwork() = default;

void
DeflectionNetwork::setEngine(StepEngine *engine)
{
    engine_ = engine ? engine : &serial_engine_;
}

std::size_t
DeflectionNetwork::numNodes() const
{
    return static_cast<std::size_t>(topo_->numNodes());
}

void
DeflectionNetwork::inject(const PacketPtr &pkt)
{
    if (pkt->src >= numNodes() || pkt->dst >= numNodes())
        fatal("packet ", pkt->toString(),
              " references nodes outside the deflection network");
    ++injected_;
    ++packetsInjected;
    pending_.push(pkt);
}

void
DeflectionNetwork::setDeliveryHandler(DeliveryHandler handler)
{
    handler_ = std::move(handler);
}

bool
DeflectionNetwork::idle() const
{
    return pending_.empty() && queued_flits_ == 0 &&
           in_fabric_flits_ == 0;
}

std::optional<noc::NetworkModel::Accounting>
DeflectionNetwork::accounting() const
{
    // Flits travel independently, so packet-level in-flight is kept
    // as the injected/delivered difference (flit-level residency is
    // covered by queued_flits_/in_fabric_flits_).
    Accounting acc;
    acc.injected = injected_;
    acc.delivered = delivered_;
    acc.in_flight = injected_ - delivered_;
    return acc;
}

bool
DeflectionNetwork::setNodeStalled(std::size_t node, bool stalled)
{
    if (node >= stalled_.size())
        fatal("deflection network: cannot stall node ", node, " of ",
              stalled_.size());
    stalled_[node] = stalled ? 1 : 0;
    return true;
}

void
DeflectionNetwork::reduceScratch(Cycle now)
{
    // Folding an untouched scratch slot is the identity, so iterating
    // the backend's (ascending) active-node list accumulates — and
    // float-rounds — exactly like the full 0..n-1 sweep.
    for (int i : fabric_->scratchNodes()) {
        kernel::NodeScratch &s = fabric_->scratch(i);
        in_fabric_flits_ += s.fabric_delta;
        queued_flits_ += s.queued_delta;
        flitsDeflected += static_cast<double>(s.deflected);
        injectionStalls += static_cast<double>(s.stalls);
        flitsEjected += static_cast<double>(s.eject_deflections.size());
        for (std::uint32_t d : s.eject_deflections)
            deflectionsPerFlit.sample(d);
        for (const PacketPtr &pkt : s.delivered) {
            ++delivered_;
            ++packetsDelivered;
            totalLatency.sample(static_cast<double>(pkt->latency()));
            if (handler_)
                handler_(pkt);
        }
        s.eject_deflections.clear();
        s.delivered.clear();
        s.deflected = 0;
        s.stalls = 0;
        s.fabric_delta = 0;
        s.queued_delta = 0;
    }
    (void)now;
}

void
DeflectionNetwork::stepCycle()
{
    Cycle now = time_;

    // Sequential: move due packets into the per-node injection queues,
    // flit by flit.
    while (!pending_.empty() && pending_.top()->inject_tick <= now) {
        PacketPtr pkt = pending_.top();
        pending_.pop();
        if (pkt->src == pkt->dst) {
            // Local delivery bypasses the bufferless fabric (no port
            // to traverse); mirror the VC network's 2-cycle NIC path.
            pkt->enter_tick = now;
            pkt->hops = 0;
            pkt->deliver_tick = now + 2;
            ++delivered_;
            ++packetsDelivered;
            totalLatency.sample(static_cast<double>(pkt->latency()));
            if (handler_)
                handler_(pkt);
            continue;
        }
        std::uint32_t flits = params_.flitsPerPacket(pkt->size_bytes);
        fabric_->enqueue(pkt->src, pkt, flits);
        queued_flits_ += flits;
    }

    // Phase 1: eject/inject/route — node i writes only its own
    // arrival set, staging slots, reassembly map and scratch.
    fabric_->route(*engine_, now, stalled_);

    // Phase 2: gather — node j rebuilds its arrival set from its
    // upstream staging slots (sole reader of each slot).
    fabric_->gather(*engine_);

    // Sequential: fold per-node side effects in fixed index order.
    reduceScratch(now);

    ++time_;
}

void
DeflectionNetwork::advanceTo(Tick t)
{
    while (time_ < t) {
        if (in_fabric_flits_ == 0 && queued_flits_ == 0) {
            Tick next =
                pending_.empty() ? t : pending_.top()->inject_tick;
            if (next > time_) {
                time_ = std::min(t, next);
                continue;
            }
        }
        stepCycle();
    }
}

void
DeflectionNetwork::save(ArchiveWriter &aw) const
{
    aw.beginSection("deflection_net");
    aw.putU64(time_);
    aw.putU64(in_fabric_flits_);
    aw.putU64(queued_flits_);
    aw.putU64(delivered_);
    aw.putU64(injected_);
    for (char s : stalled_)
        aw.putU8(static_cast<std::uint8_t>(s));

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
DeflectionNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("deflection_net");
    time_ = ar.getU64();
    in_fabric_flits_ = ar.getU64();
    queued_flits_ = ar.getU64();
    delivered_ = ar.getU64();
    injected_ = ar.getU64();
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
