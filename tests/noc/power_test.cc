/**
 * @file
 * Tests for the activity-based NoC energy model.
 */

#include <gtest/gtest.h>

#include "noc/cycle_network.hh"
#include "noc/power.hh"
#include "sim/simulation.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

TEST(PowerModel, PricesActivityLinearly)
{
    PowerParams p;
    p.buffer_write_pj = 2.0;
    p.switch_traversal_pj = 3.0;
    p.link_traversal_pj = 5.0;
    p.static_mw_per_router = 0.0;
    NocPowerModel model(p);
    NocActivity a;
    a.buffer_writes = 10;
    a.switch_traversals = 20;
    a.link_traversals = 30;
    auto e = model.estimate(a);
    EXPECT_DOUBLE_EQ(e.buffer_pj, 20.0);
    EXPECT_DOUBLE_EQ(e.switch_pj, 60.0);
    EXPECT_DOUBLE_EQ(e.link_pj, 150.0);
    EXPECT_DOUBLE_EQ(e.totalPj(), 230.0);
}

TEST(PowerModel, StaticEnergyScalesWithTimeAndRouters)
{
    PowerParams p;
    p.buffer_write_pj = 0;
    p.switch_traversal_pj = 0;
    p.link_traversal_pj = 0;
    p.static_mw_per_router = 2.0;
    p.ns_per_cycle = 1.0;
    NocPowerModel model(p);
    NocActivity a;
    a.routers = 16;
    a.cycles = 1000;
    auto e = model.estimate(a);
    // 2 mW * 16 routers * 1000 ns = 32000 pJ.
    EXPECT_DOUBLE_EQ(e.static_pj, 32000.0);
}

TEST(PowerModel, AveragePowerFromEnergy)
{
    EnergyEstimate e;
    e.link_pj = 500.0;
    EXPECT_DOUBLE_EQ(e.averageMw(1000.0), 0.5);
    EXPECT_DOUBLE_EQ(e.averageMw(0.0), 0.0);
}

TEST(PowerModel, ActivityOfRealRun)
{
    Simulation sim;
    NocParams np;
    CycleNetwork net(sim, "noc", np);
    for (int i = 0; i < 50; ++i)
        net.inject(makePacket(static_cast<PacketId>(i + 1),
                              static_cast<NodeId>(i % 64),
                              static_cast<NodeId>((i * 13 + 1) % 64),
                              MsgClass::Request, 64,
                              static_cast<Tick>(i)));
    net.advanceTo(5000);
    NocActivity a = activityOf(net);
    EXPECT_EQ(a.routers, 64);
    EXPECT_GT(a.cycles, 0u);
    // Each flit is buffered once per traversed router and switches at
    // least once per router; link traversals exclude ejections.
    EXPECT_GT(a.buffer_writes, 0u);
    EXPECT_GE(a.switch_traversals, a.link_traversals);
    EXPECT_EQ(a.switch_traversals - a.link_traversals,
              static_cast<std::uint64_t>(
                  net.flitsDelivered.value())); // ejection traversals

    NocPowerModel model;
    auto e = model.estimate(a);
    EXPECT_GT(e.totalPj(), 0.0);
}

TEST(PowerModel, MoreTrafficMoreDynamicEnergy)
{
    auto energy = [](int packets) {
        Simulation sim;
        NocParams np;
        CycleNetwork net(sim, "noc", np);
        for (int i = 0; i < packets; ++i)
            net.inject(makePacket(
                static_cast<PacketId>(i + 1),
                static_cast<NodeId>(i % 64),
                static_cast<NodeId>((i * 7 + 3) % 64),
                MsgClass::Response, 64, static_cast<Tick>(i)));
        net.advanceTo(20000);
        PowerParams p;
        p.static_mw_per_router = 0.0;
        return NocPowerModel(p).estimate(activityOf(net)).totalPj();
    };
    EXPECT_GT(energy(400), 2.0 * energy(100));
}

} // namespace
