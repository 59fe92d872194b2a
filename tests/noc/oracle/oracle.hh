/**
 * @file
 * The object oracle as the differential tests use it: fabric factories
 * with the signatures of the library's soa ones, passed as the last
 * constructor argument of CycleNetwork / DeflectionNetwork. The
 * oracle is the per-object Router/Nic/Link reference implementation
 * of the same algorithm, so every differential demands bit-identical
 * deliveries, stats trees and checkpoint bytes between the two.
 */

#ifndef RASIM_NOC_ORACLE_ORACLE_HH
#define RASIM_NOC_ORACLE_ORACLE_HH

#include <memory>

#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "noc/kernel/backend.hh"

namespace rasim
{
namespace noc
{
namespace oracle
{

std::unique_ptr<kernel::CycleFabric>
makeCycleFabric(stats::Group *parent, const NocParams &params,
                const Topology &topo, const RoutingAlgorithm &routing);

std::unique_ptr<kernel::DeflectFabric>
makeDeflectFabric(const NocParams &params, const Topology &topo);

/** The compute backend a differential lane runs. */
enum class Kernel
{
    Object, ///< this oracle
    Soa,    ///< the library's kernel (the networks' default)
};

inline const char *
name(Kernel k)
{
    return k == Kernel::Object ? "object" : "soa";
}

/** @p k's fabric factory for network type @p Net. */
template <typename Net>
typename Net::FabricFactory fabric(Kernel k);

template <>
inline CycleNetwork::FabricFactory
fabric<CycleNetwork>(Kernel k)
{
    return k == Kernel::Object ? makeCycleFabric
                               : kernel::makeCycleFabric;
}

template <>
inline DeflectionNetwork::FabricFactory
fabric<DeflectionNetwork>(Kernel k)
{
    return k == Kernel::Object ? makeDeflectFabric
                               : kernel::makeDeflectFabric;
}

} // namespace oracle
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_ORACLE_ORACLE_HH
