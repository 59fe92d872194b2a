/**
 * @file
 * The NoC compute-backend layer: the detailed network models
 * (CycleNetwork, DeflectionNetwork) are thin orchestrators — they own
 * injection heaps, aggregate statistics and delivery callbacks — while
 * the per-cycle router/NIC/link state machine lives behind one of the
 * fabric interfaces below.
 *
 * The library has one implementation of each: the structure-of-arrays
 * kernel (soa_cycle.hh, soa_deflect.hh), which keeps all per-router/
 * per-port/per-VC state in contiguous, index-addressed record arrays,
 * runs the RC/VA/SA/ST+LT stages as batched passes over an
 * active-node worklist, and dispatches an AVX2 occupancy scan at
 * runtime. A network builds its fabric through a factory passed as its
 * last constructor argument, makeCycleFabric / makeDeflectFabric (soa)
 * by default. That argument is a test seam, not a configuration
 * point: the differential tests pass the object oracle there
 * (tests/noc/oracle/, the per-object Router/Nic/Link reference
 * implementation), which runs the same algorithm in the same per-node
 * operation order, so deliveries, the full stats tree and checkpoint
 * bytes must all be bit-identical between the two.
 */

#ifndef RASIM_NOC_KERNEL_BACKEND_HH
#define RASIM_NOC_KERNEL_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "noc/packet.hh"
#include "noc/params.hh"
#include "sim/step_engine.hh"

namespace rasim
{

namespace stats
{
class Group;
}

namespace noc
{

class Topology;
class RoutingAlgorithm;

namespace kernel
{

/** Per-router activity counters consumed by the power model. */
struct RouterActivity
{
    double flits_routed = 0.0;
    double buffer_writes = 0.0;
    double link_traversals = 0.0;
};

/**
 * Compute backend of the buffered VC network (CycleNetwork). The
 * orchestrator drives one cycle as: enqueue due packets (sequential),
 * compute (parallel phase 1: allocation + traversal), commit (parallel
 * phase 2: buffer writes + credit returns), then drain completed(i)
 * of completedNodes() sequentially in node order.
 */
class CycleFabric
{
  public:
    virtual ~CycleFabric() = default;

    /** Human-readable dispatch summary for the startup log line. */
    virtual std::string description() const = 0;

    /** Sequential, pre-phase: packetise @p pkt into node's NIC queue. */
    virtual void enqueue(std::size_t node, const PacketPtr &pkt,
                         Cycle now) = 0;

    /** Phase 1 over all nodes. @p stalled nodes skip router compute. */
    virtual void compute(StepEngine &engine, Cycle now,
                         const std::vector<char> &stalled) = 0;

    /** Phase 2 over all nodes. @p stalled nodes skip router commit. */
    virtual void commit(StepEngine &engine, Cycle now,
                        const std::vector<char> &stalled) = 0;

    /**
     * Packets fully received at @p node this cycle, in arrival order.
     * The orchestrator drains and clears this after the commit barrier
     * (sequentially, so delivery callbacks never run concurrently).
     */
    virtual std::vector<PacketPtr> &completed(std::size_t node) = 0;

    /**
     * Ascending nodes whose completed() may be non-empty after this
     * cycle's commit. Draining an empty list is the identity, so a
     * backend may list just the nodes that ejected a tail (soa) or
     * every node (the object oracle).
     */
    virtual const std::vector<int> &completedNodes() const = 0;

    /**
     * Fold stat increments a backend batched during compute/commit
     * into its stats tree, in node order. The orchestrator calls it
     * once at the end of every advanceTo, so stats, routerActivity()
     * and save() never see a pending increment. No-op by default.
     */
    virtual void flushStats() {}

    virtual RouterActivity routerActivity(std::size_t node) const = 0;

    /**
     * Checkpoint the fabric-resident state: the shared packet table
     * followed by per-router, per-NIC and per-link sections. The soa
     * kernel and the object oracle emit the identical byte stream, so
     * a checkpoint taken under one restores under the other.
     */
    virtual void save(ArchiveWriter &aw) const = 0;
    virtual void restore(ArchiveReader &ar) = 0;
};

/**
 * A flit in flight in the bufferless deflection fabric, with its age
 * for oldest-first arbitration.
 */
struct DFlit
{
    PacketPtr pkt;
    std::uint32_t seq = 0;
    std::uint32_t deflections = 0;
    std::uint32_t hops = 0;
    Tick birth = 0; ///< cycle the flit entered the fabric
};

/**
 * Per-node side effects produced inside a parallel phase. Only node i
 * touches scratch(i); the orchestrator folds the slots into aggregate
 * stats and fires delivery callbacks in node-index order, so serial
 * and parallel runs accumulate (and float-round) identically.
 */
struct NodeScratch
{
    /** Deflection count of each flit ejected this cycle. */
    std::vector<std::uint32_t> eject_deflections;
    /** Packets whose last flit ejected this cycle. */
    std::vector<PacketPtr> delivered;
    std::uint64_t deflected = 0;
    std::uint64_t stalls = 0;
    std::int64_t fabric_delta = 0;
    std::int64_t queued_delta = 0;
};

/**
 * Compute backend of the bufferless deflection network. One cycle:
 * enqueue due flits (sequential), route (parallel phase 1: eject +
 * inject + port assignment into per-node staging), gather (parallel
 * phase 2: pull from upstream staging in fixed source order), then a
 * sequential scratch fold by the orchestrator.
 */
class DeflectFabric
{
  public:
    virtual ~DeflectFabric() = default;

    /** Human-readable dispatch summary for the startup log line. */
    virtual std::string description() const = 0;

    /** Sequential, pre-phase: append @p nflits flits of @p pkt to the
     *  node's injection queue. */
    virtual void enqueue(std::size_t node, const PacketPtr &pkt,
                         std::uint32_t nflits) = 0;

    virtual void route(StepEngine &engine, Cycle now,
                       const std::vector<char> &stalled) = 0;

    virtual void gather(StepEngine &engine) = 0;

    /**
     * Ascending node indices whose scratch may be non-empty this
     * cycle. Folding an untouched scratch is the identity, so a
     * backend may return all nodes (the object oracle) or just the
     * active ones (soa) — the fold result is bit-identical either way.
     */
    virtual const std::vector<int> &scratchNodes() const = 0;

    virtual NodeScratch &scratch(std::size_t node) = 0;

    /** Archive byte stream shared with the object oracle (packet table,
     *  arrivals, injection queues, reassembly maps). */
    virtual void save(ArchiveWriter &aw) const = 0;
    virtual void restore(ArchiveReader &ar) = 0;
};

/** Builds a CycleNetwork's fabric (the constructor's test seam). */
using CycleFabricFactory = std::unique_ptr<CycleFabric> (*)(
    stats::Group *parent, const NocParams &params, const Topology &topo,
    const RoutingAlgorithm &routing);

/** Builds a DeflectionNetwork's fabric (the constructor's test seam). */
using DeflectFabricFactory = std::unique_ptr<DeflectFabric> (*)(
    const NocParams &params, const Topology &topo);

/** The soa kernel of the buffered VC network: the default factory. */
std::unique_ptr<CycleFabric>
makeCycleFabric(stats::Group *parent, const NocParams &params,
                const Topology &topo, const RoutingAlgorithm &routing);

/** The soa kernel of the deflection network: the default factory. */
std::unique_ptr<DeflectFabric>
makeDeflectFabric(const NocParams &params, const Topology &topo);

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_BACKEND_HH
