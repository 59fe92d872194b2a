/**
 * @file
 * Tests for the abstract network model in Static and Tuned modes.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <vector>

#include "abstractnet/abstract_network.hh"
#include "abstractnet/latency_model.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"

namespace
{

using namespace rasim;
using namespace rasim::abstractnet;
using noc::MsgClass;
using noc::PacketPtr;

struct AbsFixture
{
    explicit AbsFixture(AbstractNetwork::Mode mode,
                        noc::NocParams p = noc::NocParams(),
                        const AbstractParams &a = {})
        : net(sim, "abs", p, mode, a)
    {
        net.setDeliveryHandler(
            [this](const PacketPtr &pkt) { delivered.push_back(pkt); });
    }

    PacketPtr
    send(NodeId src, NodeId dst, Tick when, std::uint32_t bytes = 8,
         MsgClass cls = MsgClass::Request)
    {
        auto pkt = noc::makePacket(next_id++, src, dst, cls, bytes, when);
        net.inject(pkt);
        return pkt;
    }

    Simulation sim;
    AbstractNetwork net;
    std::vector<PacketPtr> delivered;
    PacketId next_id = 1;
};

TEST(AbstractNetwork, StaticZeroLoadMatchesFormula)
{
    noc::NocParams p;
    AbsFixture f(AbstractNetwork::Mode::Static, p);
    auto pkt = f.send(0, 63, 10, 64);
    f.net.advanceTo(1000);
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(pkt->latency(), zeroLoadLatency(p, 14, 4));
    EXPECT_EQ(pkt->hops, 14u);
}

TEST(AbstractNetwork, DeliveriesInTickOrder)
{
    AbsFixture f(AbstractNetwork::Mode::Static);
    f.send(0, 63, 100);
    f.send(0, 1, 100);
    f.send(5, 6, 0);
    f.net.advanceTo(1000);
    ASSERT_EQ(f.delivered.size(), 3u);
    for (std::size_t i = 1; i < f.delivered.size(); ++i)
        EXPECT_LE(f.delivered[i - 1]->deliver_tick,
                  f.delivered[i]->deliver_tick);
}

TEST(AbstractNetwork, AdvanceToOnlyDeliversDue)
{
    AbsFixture f(AbstractNetwork::Mode::Static);
    auto a = f.send(0, 1, 0);
    auto b = f.send(0, 63, 0);
    f.net.advanceTo(a->deliver_tick);
    EXPECT_EQ(f.delivered.size(), 1u);
    EXPECT_FALSE(f.net.idle());
    f.net.advanceTo(b->deliver_tick);
    EXPECT_EQ(f.delivered.size(), 2u);
    EXPECT_TRUE(f.net.idle());
}

TEST(AbstractNetwork, ContentionRaisesLatencyUnderLoad)
{
    AbstractParams a;
    a.window = 64;
    AbsFixture f(AbstractNetwork::Mode::Static, noc::NocParams(), a);
    // Saturating offered load for a while...
    Tick t = 0;
    for (int i = 0; i < 5000; ++i) {
        t = static_cast<Tick>(i / 16); // 16 packets per cycle
        f.send(static_cast<NodeId>(i % 64),
               static_cast<NodeId>((i * 13 + 1) % 64), t, 64);
        f.net.advanceTo(t);
    }
    EXPECT_GT(f.net.utilization(), 0.2);
    auto loaded = f.send(0, 63, t, 64);
    f.net.advanceTo(t + 100000);
    noc::NocParams p;
    EXPECT_GT(loaded->latency(), zeroLoadLatency(p, 14, 4));
}

TEST(AbstractNetwork, TunedModeUsesTable)
{
    AbsFixture f(AbstractNetwork::Mode::Tuned);
    // Feed the table a large observed latency for distance 1.
    for (int i = 0; i < 100; ++i)
        f.net.table().observe(0, 1, 1, 91);
    auto pkt = f.send(0, 1, 0, 8);
    f.net.advanceTo(1000);
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(pkt->latency(), 91u);
}

TEST(AbstractNetwork, TunedModeFallsBackToSeedWithoutObservations)
{
    noc::NocParams p;
    AbsFixture f(AbstractNetwork::Mode::Tuned, p);
    auto pkt = f.send(0, 9, 0, 8); // 2 hops
    f.net.advanceTo(1000);
    EXPECT_EQ(pkt->latency(), zeroLoadLatency(p, 2, 1));
}

TEST(AbstractNetwork, LateInjectionStartsNow)
{
    AbsFixture f(AbstractNetwork::Mode::Static);
    f.send(5, 6, 0);
    f.net.advanceTo(500);
    auto late = f.send(0, 1, 100); // inject tick in the model's past
    EXPECT_GE(late->enter_tick, 500u);
    f.net.advanceTo(1000);
    EXPECT_EQ(f.delivered.size(), 2u);
}

TEST(AbstractNetwork, StatsCountDeliveries)
{
    AbsFixture f(AbstractNetwork::Mode::Static);
    for (int i = 0; i < 10; ++i)
        f.send(static_cast<NodeId>(i), static_cast<NodeId>(63 - i), 0);
    f.net.advanceTo(10000);
    EXPECT_DOUBLE_EQ(f.net.packetsInjected.value(), 10.0);
    EXPECT_DOUBLE_EQ(f.net.packetsDelivered.value(), 10.0);
    EXPECT_EQ(f.net.totalLatency.count(), 10u);
}

// abstract.granularity accepts exactly "distance" or "pair": a near
// miss is a config error, not a silent distance-granularity run.
TEST(AbstractNetwork, UnknownGranularityIsFatal)
{
    Config bad;
    bad.set("abstract.granularity", std::string("pairs"));
    EXPECT_SIM_ERROR(AbstractParams::fromConfig(bad),
                     "abstract.granularity");

    Config pair;
    pair.set("abstract.granularity", std::string("pair"));
    AbsFixture f(AbstractNetwork::Mode::Tuned, noc::NocParams(),
                 AbstractParams::fromConfig(pair));
    EXPECT_EQ(f.net.table().granularity(),
              LatencyTable::Granularity::Pair);
}

TEST(AbstractNetwork, InvalidNodeIsFatal)
{
    AbsFixture f(AbstractNetwork::Mode::Static);
    auto pkt = noc::makePacket(1, 0, 999, MsgClass::Request, 8, 0);
    EXPECT_SIM_ERROR(f.net.inject(pkt), "outside");
}

} // namespace
