/**
 * @file
 * Tests for cache replacement policies.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <initializer_list>
#include <vector>

#include "mem/replacement.hh"
#include "sim/rng.hh"

namespace
{

using namespace rasim;
using namespace rasim::mem;

/** Candidate mask naming @p list's ways. */
WayMask
ways(std::initializer_list<int> list)
{
    WayMask m = 0;
    for (int w : list)
        m |= WayMask{1} << w;
    return m;
}

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru(4, 4);
    lru.touch(0, 0, 10);
    lru.touch(0, 1, 20);
    lru.touch(0, 2, 5);
    lru.touch(0, 3, 15);
    EXPECT_EQ(lru.victim(0, ways({0, 1, 2, 3})), 2);
    lru.touch(0, 2, 30);
    EXPECT_EQ(lru.victim(0, ways({0, 1, 2, 3})), 0);
}

TEST(Lru, RespectsCandidateFilter)
{
    LruPolicy lru(1, 4);
    lru.touch(0, 0, 1);
    lru.touch(0, 1, 2);
    lru.touch(0, 2, 3);
    lru.touch(0, 3, 4);
    EXPECT_EQ(lru.victim(0, ways({2, 3})), 2);
}

TEST(Lru, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    lru.touch(0, 0, 100);
    lru.touch(0, 1, 1);
    lru.touch(1, 0, 1);
    lru.touch(1, 1, 100);
    EXPECT_EQ(lru.victim(0, ways({0, 1})), 1);
    EXPECT_EQ(lru.victim(1, ways({0, 1})), 0);
}

TEST(Lru, SameTickBreaksBySequence)
{
    LruPolicy lru(1, 2);
    lru.touch(0, 1, 7);
    lru.touch(0, 0, 7);
    EXPECT_EQ(lru.victim(0, ways({0, 1})), 1); // way 1 touched first
}

TEST(Fifo, EvictsOldestFill)
{
    FifoPolicy fifo(1, 3);
    fifo.touch(0, 0, 1);
    fifo.touch(0, 1, 2);
    fifo.touch(0, 2, 3);
    // Re-touching way 0 must NOT move it in FIFO order.
    fifo.touch(0, 0, 100);
    EXPECT_EQ(fifo.victim(0, ways({0, 1, 2})), 0);
}

TEST(Random, OnlyPicksCandidates)
{
    RandomPolicy rnd(1, 8, Rng(1, 1));
    for (int i = 0; i < 100; ++i) {
        int v = rnd.victim(0, ways({2, 5, 7}));
        EXPECT_TRUE(v == 2 || v == 5 || v == 7);
    }
}

TEST(Random, DeterministicAcrossRuns)
{
    RandomPolicy a(1, 8, Rng(9, 9)), b(1, 8, Rng(9, 9));
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.victim(0, ways({0, 1, 2, 3})),
                  b.victim(0, ways({0, 1, 2, 3})));
}

TEST(Random, PicksKthCandidateInWayOrder)
{
    // Same draw -> same victim as indexing the ascending candidate
    // list, so a mask-driven eviction reproduces the list-driven one.
    const std::vector<int> cands{1, 4, 6, 63};
    RandomPolicy rnd(1, 64, Rng(3, 5));
    Rng ref(3, 5);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(rnd.victim(0, ways({1, 4, 6, 63})),
                  cands[ref.range(static_cast<std::uint32_t>(
                      cands.size()))]);
}

TEST(Lru, WideSetUsesHighWays)
{
    LruPolicy lru(1, 64);
    for (int w = 0; w < 64; ++w)
        lru.touch(0, w, 100 - (w == 63 ? 99 : 0));
    EXPECT_EQ(lru.victim(0, ~WayMask{0}), 63);
    EXPECT_SIM_ERROR(LruPolicy(1, 65), "at most 64 ways");
}

TEST(ReplacementFactory, MakesAllKinds)
{
    Rng rng(1, 1);
    EXPECT_EQ(makeReplacement("lru", 2, 2, rng)->name(), "lru");
    EXPECT_EQ(makeReplacement("fifo", 2, 2, rng)->name(), "fifo");
    EXPECT_EQ(makeReplacement("random", 2, 2, rng)->name(), "random");
    EXPECT_SIM_ERROR(makeReplacement("plru", 2, 2, rng), "unknown");
}

} // namespace
