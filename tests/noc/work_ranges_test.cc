/**
 * @file
 * The unit-range -> node-range mapping the soa kernel splits its nodes
 * by: for random weights and every split a pool makes (including more
 * slots than nodes), the node ranges must be contiguous, disjoint and
 * cover every node exactly once, and busy nodes must end up in
 * narrower ranges after a rebalance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "noc/kernel/work_ranges.hh"
#include "sim/parallel_engine.hh"
#include "sim/rng.hh"

namespace
{

using namespace rasim;
using rasim::noc::kernel::WorkRanges;

/** Give node i exactly w[i] visits and rebalance. */
void
weigh(WorkRanges &r, const std::vector<std::uint32_t> &w)
{
    for (std::size_t i = 0; i < w.size(); ++i)
        for (std::uint32_t k = 0; k < w[i]; ++k)
            r.visit(i);
    r.rebalance();
}

/** Each node in exactly one of @p ranges, and ranges are ascending
 *  and contiguous from node 0 to the last node. */
void
expectExactCover(std::vector<std::pair<std::size_t, std::size_t>> ranges,
                 std::size_t nodes, const std::string &label)
{
    std::sort(ranges.begin(), ranges.end());
    std::vector<int> hits(nodes, 0);
    std::size_t next = 0;
    for (auto [lo, hi] : ranges) {
        ASSERT_LE(lo, hi) << label;
        ASSERT_LE(hi, nodes) << label;
        if (lo == hi)
            continue;
        EXPECT_EQ(lo, next) << label << ": gap or overlap";
        next = hi;
        for (std::size_t i = lo; i < hi; ++i)
            ++hits[i];
    }
    for (std::size_t i = 0; i < nodes; ++i)
        EXPECT_EQ(hits[i], 1) << label << " node " << i;
}

TEST(WorkRanges, UnitWeightsMapOneUnitPerNode)
{
    WorkRanges r(5);
    EXPECT_EQ(r.units(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(r.nodes(i, i + 1), std::make_pair(i, i + 1));
    EXPECT_EQ(r.nodes(0, 5), std::make_pair(std::size_t{0}, std::size_t{5}));
    EXPECT_EQ(r.nodes(2, 2), std::make_pair(std::size_t{2}, std::size_t{2}));
}

TEST(WorkRanges, NodeBelongsToTheRangeHoldingItsStart)
{
    // Weights 1, 4, 1, 3: starts 0, 1, 5, 6; 9 units.
    WorkRanges r(4);
    weigh(r, {0, 3, 0, 2});
    ASSERT_EQ(r.units(), 9u);
    EXPECT_EQ(r.nodes(0, 1), std::make_pair(std::size_t{0}, std::size_t{1}));
    // Units 2..4 are the tail of node 1's weight: no node starts there.
    EXPECT_EQ(r.nodes(2, 5), std::make_pair(std::size_t{2}, std::size_t{2}));
    EXPECT_EQ(r.nodes(1, 6), std::make_pair(std::size_t{1}, std::size_t{3}));
    EXPECT_EQ(r.nodes(6, 9), std::make_pair(std::size_t{3}, std::size_t{4}));
}

TEST(WorkRanges, EverySplitCoversEveryNodeOnce)
{
    // The split ParallelEngine makes: slot s of S gets the unit block
    // [W*s/S, W*(s+1)/S). Random weights, node counts below, at and
    // above the slot count.
    Rng rng(0x3a7, 1);
    for (std::size_t nodes : {1UL, 2UL, 3UL, 5UL, 9UL, 64UL, 512UL}) {
        for (int trial = 0; trial < 20; ++trial) {
            WorkRanges r(nodes);
            std::vector<std::uint32_t> w(nodes);
            for (std::uint32_t &x : w)
                x = rng.bernoulli(0.3)
                        ? static_cast<std::uint32_t>(rng.range(600))
                        : 0;
            weigh(r, w);
            std::size_t units = r.units();
            for (std::size_t slots = 1; slots <= 9; ++slots) {
                std::vector<std::pair<std::size_t, std::size_t>> ranges;
                for (std::size_t s = 0; s < slots; ++s)
                    ranges.push_back(r.nodes(units * s / slots,
                                             units * (s + 1) / slots));
                expectExactCover(ranges, nodes,
                                 "nodes=" + std::to_string(nodes) +
                                     " slots=" + std::to_string(slots));
            }
        }
    }
}

TEST(WorkRanges, PoolSplitsCoverEveryNodeOnce)
{
    // The same property through the real engines' forRange, at every
    // pool width the tests and benches use.
    Rng rng(0x3a8, 1);
    for (int workers : {0, 1, 2, 3, 7}) {
        ParallelEngine pool(workers);
        for (std::size_t nodes : {1UL, 2UL, 6UL, 128UL}) {
            WorkRanges r(nodes);
            std::vector<std::uint32_t> w(nodes);
            for (std::uint32_t &x : w)
                x = static_cast<std::uint32_t>(rng.range(50));
            weigh(r, w);
            std::mutex m;
            std::vector<std::pair<std::size_t, std::size_t>> ranges;
            pool.forRange(r.units(), [&](std::size_t b, std::size_t e) {
                auto nr = r.nodes(b, e);
                std::lock_guard<std::mutex> lock(m);
                ranges.push_back(nr);
            });
            expectExactCover(ranges, nodes,
                             "workers=" + std::to_string(workers) +
                                 " nodes=" + std::to_string(nodes));
        }
    }
}

TEST(WorkRanges, BusyNodesGetNarrowerRanges)
{
    // 8 nodes, the middle two do nearly all the work: a two-way split
    // puts them on different slots instead of both in the first half.
    WorkRanges r(8);
    weigh(r, {0, 0, 0, 100, 100, 0, 0, 0});
    auto first = r.nodes(0, r.units() / 2);
    EXPECT_EQ(first, std::make_pair(std::size_t{0}, std::size_t{4}));
}

TEST(WorkRanges, IdleStretchKeepsTheLastCut)
{
    WorkRanges r(4);
    weigh(r, {9, 0, 0, 0});
    std::size_t units = r.units();
    r.rebalance(); // nothing visited since: keep the cut
    EXPECT_EQ(r.units(), units);
    EXPECT_EQ(r.nodes(0, 10), std::make_pair(std::size_t{0}, std::size_t{1}));
    weigh(r, {0, 0, 0, 1}); // new work replaces, not adds to, the old
    EXPECT_EQ(r.units(), 5u);
    EXPECT_EQ(r.nodes(0, 2), std::make_pair(std::size_t{0}, std::size_t{2}));
}

} // namespace
