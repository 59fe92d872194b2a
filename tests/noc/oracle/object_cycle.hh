/**
 * @file
 * The object oracle of the buffered VC network: the per-object
 * Router/Nic/Link components assembled on the topology, stepped one
 * at a time. The readable reference implementation the soa kernel is
 * differentially tested against; tests hand it to a CycleNetwork
 * through the constructor's fabric factory (see oracle.hh).
 */

#ifndef RASIM_NOC_ORACLE_OBJECT_CYCLE_HH
#define RASIM_NOC_ORACLE_OBJECT_CYCLE_HH

#include <memory>
#include <vector>

#include "noc/kernel/backend.hh"
#include "noc/oracle/link.hh"
#include "noc/oracle/nic.hh"
#include "noc/oracle/router.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

class ObjectCycleFabric : public CycleFabric
{
  public:
    ObjectCycleFabric(stats::Group *parent, const NocParams &params,
                      const Topology &topo,
                      const RoutingAlgorithm &routing);

    std::string description() const override;

    void enqueue(std::size_t node, const PacketPtr &pkt,
                 Cycle now) override;
    void compute(StepEngine &engine, Cycle now) override;
    void commit(StepEngine &engine, Cycle now) override;
    std::vector<PacketPtr> &completed(std::size_t node) override;
    const std::vector<int> &completedNodes() const override;
    RouterActivity routerActivity(std::size_t node) const override;

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

  private:
    const NocParams &params_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Nic>> nics_;
    std::vector<std::unique_ptr<Link>> links_;
    /** All node indices, ascending: every NIC is drained each cycle. */
    std::vector<int> all_nodes_;
};

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_ORACLE_OBJECT_CYCLE_HH
