/**
 * @file
 * The object oracle of the bufferless deflection network: per-node
 * STL containers (arrival vectors, staging slots, injection deques)
 * stepped one node at a time. The readable reference implementation
 * the soa kernel is differentially tested against; tests hand it to
 * a DeflectionNetwork through the constructor's fabric factory (see
 * oracle.hh).
 */

#ifndef RASIM_NOC_ORACLE_OBJECT_DEFLECT_HH
#define RASIM_NOC_ORACLE_OBJECT_DEFLECT_HH

#include <deque>
#include <utility>
#include <vector>

#include "noc/kernel/backend.hh"
#include "sim/flat_map.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

class ObjectDeflectFabric : public DeflectFabric
{
  public:
    ObjectDeflectFabric(const NocParams &params, const Topology &topo);

    std::string description() const override;

    void enqueue(std::size_t node, const PacketPtr &pkt,
                 std::uint32_t nflits) override;
    void route(StepEngine &engine, Cycle now,
               const std::vector<char> &stalled) override;
    void gather(StepEngine &engine) override;
    const std::vector<int> &scratchNodes() const override;
    NodeScratch &scratch(std::size_t node) override;

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

  private:
    void routeNode(int i, Cycle now, const std::vector<char> &stalled);
    void gatherNode(int j);

    const NocParams &params_;
    const Topology &topo_;

    /** Flits arriving at router i this cycle. */
    std::vector<std::vector<DFlit>> arriving_;
    /** Flit leaving node i through port p this cycle (out_[i][p]);
     *  a null pkt marks an empty slot. Written only by node i in the
     *  route phase, drained only by neighbor(i, p) in the gather
     *  phase — each slot has exactly one reader. */
    std::vector<std::vector<DFlit>> out_;
    /** Upstream (node, port) pairs feeding node j, ordered by node
     *  index: the fixed gather order that keeps arrival sets (and so
     *  the whole simulation) deterministic. */
    std::vector<std::vector<std::pair<int, int>>> sources_;
    /** Per-node injection queues (flits waiting for a free slot). */
    std::vector<std::deque<DFlit>> inject_queues_;
    /** Reassembly state per destination node: flits received per
     *  packet id. Split per node so the route phase stays
     *  partition-local. */
    std::vector<FlatMap<PacketId, std::uint32_t>> rx_;
    std::vector<NodeScratch> scratch_;
    /** All node indices, ascending (the oracle folds every scratch
     *  slot each cycle; untouched slots fold as identity). */
    std::vector<int> all_nodes_;
};

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_ORACLE_OBJECT_DEFLECT_HH
