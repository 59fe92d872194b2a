/**
 * @file
 * Parameterised property sweeps over network configurations: for every
 * (topology, routing, vcs, buffers, pipeline) combination, random
 * traffic must be delivered exactly once, with latency at least the
 * zero-load bound and minimal hops for deterministic routing. Both
 * router organisations keep the NetworkModel delivery contract.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "noc/cycle_network.hh"
#include "noc/detailed_network.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

// topology, routing, vcs_per_vnet, buffer_depth, pipeline_stages
using ParamTuple = std::tuple<std::string, std::string, int, int, int>;

std::string
paramName(const testing::TestParamInfo<ParamTuple> &info)
{
    const auto &[topo, routing, vcs, depth, stages] = info.param;
    return topo + "_" + routing + "_v" + std::to_string(vcs) + "_b" +
           std::to_string(depth) + "_p" + std::to_string(stages);
}

class NetworkProperty : public testing::TestWithParam<ParamTuple>
{
  protected:
    NocParams
    makeParams() const
    {
        const auto &[topo, routing, vcs, depth, stages] = GetParam();
        NocParams p;
        p.columns = 4;
        p.rows = 4;
        p.topology = topo;
        p.routing = routing;
        p.vcs_per_vnet = vcs;
        p.buffer_depth = depth;
        p.pipeline_stages = stages;
        p.vc_classes = (topo == "torus") ? 2 : 1;
        return p;
    }
};

TEST_P(NetworkProperty, RandomTrafficDeliveredExactlyOnce)
{
    NocParams p = makeParams();
    Simulation sim;
    CycleNetwork net(sim, "noc", p);
    std::vector<PacketPtr> delivered;
    net.setDeliveryHandler(
        [&](const PacketPtr &pkt) { delivered.push_back(pkt); });

    Rng rng(0xfeed, 0xbeef);
    const int n_nodes = p.numNodes();
    const int n_pkts = 400;
    std::vector<PacketPtr> sent;
    for (int i = 0; i < n_pkts; ++i) {
        auto src = static_cast<NodeId>(rng.range(n_nodes));
        auto dst = static_cast<NodeId>(rng.range(n_nodes));
        auto cls = static_cast<MsgClass>(rng.range(3));
        std::uint32_t bytes = rng.bernoulli(0.5) ? 8 : 64;
        auto pkt = makePacket(static_cast<PacketId>(i + 1), src, dst, cls,
                              bytes, static_cast<Tick>(i / 2));
        sent.push_back(pkt);
        net.inject(pkt);
    }

    net.advanceTo(50000);

    ASSERT_EQ(delivered.size(), sent.size()) << "lost packets";
    EXPECT_TRUE(net.idle());

    std::map<PacketId, int> count;
    for (const auto &pkt : delivered)
        ++count[pkt->id];
    for (const auto &[id, c] : count)
        ASSERT_EQ(c, 1) << "packet " << id << " duplicated";

    const Topology &topo = net.topology();
    bool deterministic = p.routing != "westfirst";
    for (const auto &pkt : delivered) {
        int h = topo.minHops(pkt->src, pkt->dst);
        EXPECT_GE(pkt->latency(), static_cast<Tick>(h + 2));
        EXPECT_GE(pkt->deliver_tick, pkt->inject_tick);
        EXPECT_GE(pkt->enter_tick, pkt->inject_tick);
        if (deterministic) {
            EXPECT_EQ(pkt->hops, static_cast<std::uint32_t>(h))
                << pkt->toString();
        } else {
            EXPECT_GE(pkt->hops, static_cast<std::uint32_t>(h));
        }
    }
}

TEST_P(NetworkProperty, RerunIsBitIdentical)
{
    auto run = [this] {
        NocParams p = makeParams();
        Simulation sim;
        CycleNetwork net(sim, "noc", p);
        std::vector<std::pair<PacketId, Tick>> order;
        net.setDeliveryHandler([&](const PacketPtr &pkt) {
            order.emplace_back(pkt->id, pkt->deliver_tick);
        });
        Rng rng(0xc0ffee, 1);
        for (int i = 0; i < 200; ++i) {
            net.inject(makePacket(
                static_cast<PacketId>(i + 1),
                static_cast<NodeId>(rng.range(16)),
                static_cast<NodeId>(rng.range(16)), MsgClass::Request,
                32, static_cast<Tick>(i)));
        }
        net.advanceTo(20000);
        return order;
    };
    EXPECT_EQ(run(), run());
}

TEST(DetailedNetwork, EveryDeliveryFallsInsideItsAdvance)
{
    // The NetworkModel contract: advanceTo(t) hands up only packets
    // dated after the previous horizon and no later than t, whatever
    // the stride and the router. Packets to their own node included:
    // the deflection network keeps them out of its fabric, so they
    // take a path of their own.
    for (RouterKind router : {RouterKind::Vc, RouterKind::Deflection}) {
        for (Tick stride : {1, 3, 7, 64}) {
            SCOPED_TRACE(std::string(config::nameOf(router, router_names)) +
                         " stride " + std::to_string(stride));
            NocParams p;
            p.router = router;
            p.columns = 4;
            p.rows = 4;
            Simulation sim;
            std::unique_ptr<DetailedNetwork> net =
                makeDetailedNetwork(sim, "noc", p);
            Tick from = 0, horizon = 0;
            std::size_t delivered = 0;
            net->setDeliveryHandler([&](const PacketPtr &pkt) {
                EXPECT_GT(pkt->deliver_tick, from) << pkt->toString();
                EXPECT_LE(pkt->deliver_tick, horizon) << pkt->toString();
                ++delivered;
            });
            Rng rng(0x0dd5, stride);
            const int n = 400;
            for (int i = 0; i < n; ++i) {
                auto src = static_cast<NodeId>(rng.range(16));
                // One packet in four stays on its node.
                auto dst = rng.range(4) == 0
                               ? src
                               : static_cast<NodeId>(rng.range(16));
                net->inject(makePacket(static_cast<PacketId>(i + 1), src,
                                       dst, MsgClass::Request,
                                       rng.bernoulli(0.5) ? 8 : 64,
                                       static_cast<Tick>(i)));
            }
            while (!net->idle()) {
                from = horizon;
                horizon += stride;
                net->advanceTo(horizon);
                auto acc = net->accounting();
                ASSERT_TRUE(acc.has_value());
                ASSERT_EQ(acc->injected, acc->delivered + acc->in_flight);
                ASSERT_LT(horizon, 20000u);
            }
            EXPECT_EQ(delivered, static_cast<std::size_t>(n));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkProperty,
    testing::Values(
        ParamTuple{"mesh", "xy", 1, 2, 1},
        ParamTuple{"mesh", "xy", 2, 4, 2},
        ParamTuple{"mesh", "xy", 4, 8, 3},
        ParamTuple{"mesh", "yx", 2, 4, 2},
        ParamTuple{"mesh", "westfirst", 2, 4, 2},
        ParamTuple{"mesh", "westfirst", 4, 2, 1},
        ParamTuple{"torus", "xy", 1, 2, 2},
        ParamTuple{"torus", "xy", 2, 4, 1},
        ParamTuple{"torus", "yx", 2, 2, 2}),
    paramName);

} // namespace
