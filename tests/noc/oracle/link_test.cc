/**
 * @file
 * Tests for link pipelines: latency stamping, ordering, credits.
 */

#include <gtest/gtest.h>

#include "noc/oracle/link.hh"

namespace
{

using namespace rasim::noc;

Flit
flitWithSeq(int seq)
{
    Flit f;
    f.seq = static_cast<std::uint16_t>(seq);
    return f;
}

TEST(Link, UnitLatencyVisibleSameCommit)
{
    Link l(1);
    l.sendFlit(5, flitWithSeq(1));
    EXPECT_FALSE(l.flitReady(4));
    EXPECT_TRUE(l.flitReady(5));
    EXPECT_EQ(l.popFlit().seq, 1);
    EXPECT_TRUE(l.empty());
}

TEST(Link, MultiCycleLatencyDelays)
{
    Link l(3);
    l.sendFlit(10, flitWithSeq(1));
    EXPECT_FALSE(l.flitReady(10));
    EXPECT_FALSE(l.flitReady(11));
    EXPECT_TRUE(l.flitReady(12));
}

TEST(Link, PreservesOrder)
{
    Link l(1);
    l.sendFlit(1, flitWithSeq(1));
    l.sendFlit(2, flitWithSeq(2));
    l.sendFlit(3, flitWithSeq(3));
    EXPECT_EQ(l.popFlit().seq, 1);
    EXPECT_EQ(l.popFlit().seq, 2);
    EXPECT_EQ(l.popFlit().seq, 3);
}

TEST(Link, CreditsIndependentOfFlits)
{
    Link l(2);
    l.sendCredit(4, 7);
    EXPECT_FALSE(l.flitReady(10));
    EXPECT_FALSE(l.creditReady(4));
    EXPECT_TRUE(l.creditReady(5));
    EXPECT_EQ(l.popCredit(), 7);
    EXPECT_TRUE(l.empty());
}

TEST(Link, FlitsInFlightCounts)
{
    Link l(1);
    EXPECT_EQ(l.flitsInFlight(), 0u);
    l.sendFlit(0, flitWithSeq(0));
    l.sendFlit(0, flitWithSeq(1));
    EXPECT_EQ(l.flitsInFlight(), 2u);
    l.popFlit();
    EXPECT_EQ(l.flitsInFlight(), 1u);
}

} // namespace
