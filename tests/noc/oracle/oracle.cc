#include "noc/oracle/oracle.hh"

#include "noc/oracle/object_cycle.hh"
#include "noc/oracle/object_deflect.hh"

namespace rasim
{
namespace noc
{
namespace oracle
{

std::unique_ptr<kernel::CycleFabric>
makeCycleFabric(stats::Group *parent, const NocParams &params,
                const Topology &topo, const RoutingAlgorithm &routing)
{
    return std::make_unique<kernel::ObjectCycleFabric>(parent, params,
                                                       topo, routing);
}

std::unique_ptr<kernel::DeflectFabric>
makeDeflectFabric(const NocParams &params, const Topology &topo)
{
    return std::make_unique<kernel::ObjectDeflectFabric>(params, topo);
}

} // namespace oracle
} // namespace noc
} // namespace rasim
