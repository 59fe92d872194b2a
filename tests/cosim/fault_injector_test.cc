/**
 * @file
 * Tests for the health tests' fault injector: each fault class fires
 * exactly as keyed, faulty runs are reproducible, and the decorator
 * is transparent when every fault is off.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cosim/fault_injector.hh"
#include "noc/cycle_network.hh"
#include "sim/simulation.hh"

namespace
{

using namespace rasim;

struct InjectorFixture
{
    explicit InjectorFixture(FaultOptions opts,
                             noc::NocParams p = noc::NocParams())
        : net(sim, "noc", p), inj(net, opts)
    {
        inj.setDeliveryHandler([this](const noc::PacketPtr &pkt) {
            delivered.push_back(pkt);
        });
    }

    noc::PacketPtr
    send(NodeId src, NodeId dst, Tick when)
    {
        auto pkt = noc::makePacket(next_id++, src, dst,
                                   noc::MsgClass::Request, 8, when);
        inj.inject(pkt);
        return pkt;
    }

    Simulation sim;
    noc::CycleNetwork net;
    FaultInjector inj;
    std::vector<noc::PacketPtr> delivered;
    PacketId next_id = 1;
};

TEST(FaultInjector, TransparentWhenAllFaultsOff)
{
    InjectorFixture f(FaultOptions{});
    for (int i = 0; i < 8; ++i)
        f.send(0, 9, static_cast<Tick>(i * 4));
    f.inj.advanceTo(500);
    EXPECT_EQ(f.delivered.size(), 8u);
    EXPECT_EQ(f.inj.dropped(), 0u);
    EXPECT_EQ(f.inj.delayed(), 0u);
    EXPECT_EQ(f.inj.poisoned(), 0u);
    auto acc = f.inj.accounting();
    ASSERT_TRUE(acc.has_value());
    EXPECT_EQ(acc->injected, 8u);
    EXPECT_EQ(acc->delivered, 8u);
    EXPECT_EQ(acc->in_flight, 0u);
}

TEST(FaultInjector, DropEveryNthBreaksConservation)
{
    FaultOptions o;
    o.drop_every = 3;
    InjectorFixture f(o);
    for (int i = 0; i < 9; ++i)
        f.send(0, 9, static_cast<Tick>(i * 4));
    f.inj.advanceTo(500);
    EXPECT_EQ(f.inj.dropped(), 3u);
    EXPECT_EQ(f.delivered.size(), 6u);
    // The loss is visible in the accounting — that is the point.
    auto acc = f.inj.accounting();
    ASSERT_TRUE(acc.has_value());
    EXPECT_EQ(acc->injected - acc->delivered - acc->in_flight, 3u);
}

TEST(FaultInjector, DelayHoldsEveryNthForConfiguredCycles)
{
    FaultOptions o;
    o.delay_every = 2;
    o.delay_cycles = 100;
    InjectorFixture f(o);
    auto p1 = f.send(0, 9, 0); // passes through
    auto p2 = f.send(0, 9, 0); // held until tick 100
    f.inj.advanceTo(60);
    EXPECT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.delivered[0]->id, p1->id);
    EXPECT_FALSE(f.inj.idle()); // the held packet keeps it busy
    f.inj.advanceTo(300);
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.inj.delayed(), 1u);
    // The delayed packet could not be delivered before its release.
    EXPECT_GE(f.delivered[1]->deliver_tick, static_cast<Tick>(100));
    EXPECT_EQ(f.delivered[1]->id, p2->id);
}

TEST(FaultInjector, PoisonInflatesReportedLatency)
{
    FaultOptions o;
    o.poison_every = 2;
    o.poison_offset = 10000;
    InjectorFixture f(o);
    f.send(0, 9, 0);
    f.send(0, 9, 0);
    f.inj.advanceTo(500);
    ASSERT_EQ(f.delivered.size(), 2u);
    EXPECT_EQ(f.inj.poisoned(), 1u);
    // Exactly one of the two reported latencies is inflated.
    Tick a = f.delivered[0]->latency(), b = f.delivered[1]->latency();
    EXPECT_EQ((a >= 10000) + (b >= 10000), 1);
}

TEST(FaultInjector, FreezeWindowStopsBackendProgress)
{
    FaultOptions o;
    o.freeze_from = 1;
    o.freeze_until = 200;
    InjectorFixture f(o);
    f.send(0, 9, 0);
    f.inj.advanceTo(150); // inside the freeze window
    EXPECT_EQ(f.delivered.size(), 0u);
    auto acc = f.inj.accounting();
    ASSERT_TRUE(acc.has_value());
    EXPECT_EQ(acc->in_flight, 1u);
    f.inj.advanceTo(400); // past the window: progress resumes
    EXPECT_EQ(f.delivered.size(), 1u);
}

TEST(FaultInjector, FaultyRunsAreReproducible)
{
    auto run = [] {
        FaultOptions o;
        o.drop_every = 5;
        o.delay_every = 3;
        o.delay_cycles = 40;
        o.poison_every = 4;
        InjectorFixture f(o);
        for (int i = 0; i < 60; ++i)
            f.send(static_cast<NodeId>(i % 64),
                   static_cast<NodeId>((i * 13 + 1) % 64),
                   static_cast<Tick>(i * 2));
        f.inj.advanceTo(2000);
        std::vector<std::pair<PacketId, Tick>> out;
        for (const auto &pkt : f.delivered)
            out.emplace_back(pkt->id, pkt->deliver_tick);
        return out;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
