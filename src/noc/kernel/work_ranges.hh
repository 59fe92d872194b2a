/**
 * @file
 * Work-weighted node ranges: how the pooled soa kernel splits its
 * nodes over an engine's slots.
 *
 * Every node carries a weight of 1 plus the visits it took since the
 * last rebalance, and the kernel hands the engine the *sum* of the
 * weights as the forRange extent. A unit range [b, e) then maps back
 * to the nodes whose cumulative-work start lies in [b, e). Starts are
 * strictly increasing (every weight is at least 1), so consecutive
 * unit ranges that cover [0, units()) give consecutive node ranges
 * that cover [0, nodes) with each node in exactly one of them — for
 * any split, including more slots than nodes (some ranges are then
 * empty). An engine that splits the units the same way every phase
 * (ParallelEngine's static slot blocks) therefore gives each slot the
 * same contiguous block of nodes in every phase until the next
 * rebalance, and busy nodes get narrower blocks than idle ones. A
 * serial engine sees one range over all nodes.
 *
 * Range shape cannot change results: a phase touches only the state
 * of the node being visited plus single-writer link ends, so which
 * thread visits a node, and next to which others, is unobservable.
 */

#ifndef RASIM_NOC_KERNEL_WORK_RANGES_HH
#define RASIM_NOC_KERNEL_WORK_RANGES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rasim
{
namespace noc
{
namespace kernel
{

class WorkRanges
{
  public:
    /** Unit weights over @p nodes nodes. */
    explicit WorkRanges(std::size_t nodes = 0)
        : start_(nodes + 1), visits_(nodes, 0)
    {
        for (std::size_t i = 0; i <= nodes; ++i)
            start_[i] = i;
    }

    /** Sum of the node weights: the extent to hand forRange(). */
    std::size_t units() const { return start_.back(); }

    /** Nodes [first, second) whose start lies in unit range [b, e). */
    std::pair<std::size_t, std::size_t>
    nodes(std::size_t b, std::size_t e) const
    {
        auto first = start_.begin();
        auto last = start_.end() - 1;
        return {static_cast<std::size_t>(
                    std::lower_bound(first, last, b) - first),
                static_cast<std::size_t>(
                    std::lower_bound(first, last, e) - first)};
    }

    /**
     * Count one visit of node @p i. Only the range that owns @p i may
     * call this inside a phase, so every counter has a single writer.
     * A counter that wraps only skews the balance, never a result.
     */
    void visit(std::size_t i) { ++visits_[i]; }

    /**
     * Sequential, between phases: re-weight every node to 1 plus its
     * visits since the last rebalance and zero the counters. Keeps the
     * current cut when nothing was visited, so an idle stretch does
     * not flatten the balance the last busy one learned.
     */
    void
    rebalance()
    {
        if (std::all_of(visits_.begin(), visits_.end(),
                        [](std::uint32_t v) { return v == 0; }))
            return;
        for (std::size_t i = 0; i < visits_.size(); ++i) {
            start_[i + 1] = start_[i] + 1 + visits_[i];
            visits_[i] = 0;
        }
    }

  private:
    std::vector<std::size_t> start_;    ///< [nodes + 1], ascending
    std::vector<std::uint32_t> visits_; ///< [nodes]
};

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_WORK_RANGES_HH
