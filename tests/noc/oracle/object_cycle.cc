#include "noc/oracle/object_cycle.hh"

#include <numeric>

#include "noc/topology.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

ObjectCycleFabric::ObjectCycleFabric(stats::Group *parent,
                                     const NocParams &params,
                                     const Topology &topo,
                                     const RoutingAlgorithm &routing)
    : params_(params)
{
    int n = topo.numNodes();
    all_nodes_.resize(n);
    std::iota(all_nodes_.begin(), all_nodes_.end(), 0);
    routers_.reserve(n);
    nics_.reserve(n);
    for (int i = 0; i < n; ++i) {
        routers_.push_back(std::make_unique<Router>(parent, i, params_,
                                                    topo, routing));
        nics_.push_back(std::make_unique<Nic>(
            parent, static_cast<NodeId>(i), params_));
    }

    // Router-to-router links.
    for (int i = 0; i < n; ++i) {
        for (int p = 1; p < topo.numPorts(); ++p) {
            int j = topo.neighbor(i, p);
            if (j < 0)
                continue;
            auto link = std::make_unique<Link>(params_.link_latency);
            routers_[i]->connectOutput(p, link.get(),
                                       params_.buffer_depth);
            routers_[j]->connectInput(topo.inputPortAt(i, p),
                                      link.get());
            links_.push_back(std::move(link));
        }
    }

    // NIC <-> router local-port links (latency 1).
    for (int i = 0; i < n; ++i) {
        auto inj = std::make_unique<Link>(1);
        nics_[i]->connectInjection(inj.get(), params_.buffer_depth);
        routers_[i]->connectInput(port_local, inj.get());
        links_.push_back(std::move(inj));

        auto ej = std::make_unique<Link>(1);
        routers_[i]->connectOutput(port_local, ej.get(),
                                   params_.buffer_depth);
        nics_[i]->connectEjection(ej.get());
        links_.push_back(std::move(ej));
    }
}

std::string
ObjectCycleFabric::description() const
{
    return "object";
}

void
ObjectCycleFabric::enqueue(std::size_t node, const PacketPtr &pkt,
                           Cycle now)
{
    nics_[node]->enqueue(pkt, now);
}

void
ObjectCycleFabric::compute(StepEngine &engine, Cycle now,
                           const std::vector<char> &stalled)
{
    std::size_t n = routers_.size();
    engine.forEach(n, [this, now, &stalled](std::size_t i) {
        nics_[i]->compute(now);
        if (!stalled[i])
            routers_[i]->compute(now);
    });
}

void
ObjectCycleFabric::commit(StepEngine &engine, Cycle now,
                          const std::vector<char> &stalled)
{
    std::size_t n = routers_.size();
    engine.forEach(n, [this, now, &stalled](std::size_t i) {
        if (!stalled[i])
            routers_[i]->commit(now);
        nics_[i]->commit(now);
    });
}

std::vector<PacketPtr> &
ObjectCycleFabric::completed(std::size_t node)
{
    return nics_[node]->completed();
}

const std::vector<int> &
ObjectCycleFabric::completedNodes() const
{
    return all_nodes_;
}

RouterActivity
ObjectCycleFabric::routerActivity(std::size_t node) const
{
    const Router &r = *routers_[node];
    RouterActivity a;
    a.flits_routed = r.flitsRouted.value();
    a.buffer_writes = r.bufferWrites.value();
    a.link_traversals = r.linkTraversals.value();
    return a;
}

void
ObjectCycleFabric::save(ArchiveWriter &aw) const
{
    // Every flit of a packet shares one Packet object; archive each
    // referenced packet once and let flits point at it by id.
    PacketTable table;
    for (const auto &router : routers_)
        router->collectPackets(table);
    for (const auto &nic : nics_)
        nic->collectPackets(table);
    for (const auto &link : links_)
        link->collectPackets(table);
    savePacketTable(aw, table);

    for (const auto &router : routers_)
        router->save(aw);
    for (const auto &nic : nics_)
        nic->save(aw);
    for (const auto &link : links_)
        link->save(aw);
}

void
ObjectCycleFabric::restore(ArchiveReader &ar)
{
    PacketTable table = restorePacketTable(ar);
    for (const auto &router : routers_)
        router->restore(ar, table);
    for (const auto &nic : nics_)
        nic->restore(ar, table);
    for (const auto &link : links_)
        link->restore(ar, table);
}

} // namespace kernel
} // namespace noc
} // namespace rasim
