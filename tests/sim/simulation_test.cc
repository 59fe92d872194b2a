/**
 * @file
 * Tests for the Simulation container and SimObject lifecycle.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/sim_object.hh"
#include "sim/simulation.hh"
#include "stats/output.hh"
#include "stats/stat.hh"

namespace
{

using rasim::Config;
using rasim::SimObject;
using rasim::SimParams;
using rasim::Simulation;
using rasim::Tick;

class Probe : public SimObject
{
  public:
    Probe(Simulation &sim, const std::string &name,
          std::vector<std::string> &log, SimObject *parent = nullptr)
        : SimObject(sim, name, parent), log_(log)
    {
    }

    void init() override { log_.push_back(name() + ".init"); }

  private:
    std::vector<std::string> &log_;
};

TEST(Simulation, InitCalledOnceInConstructionOrder)
{
    Simulation sim;
    std::vector<std::string> log;
    Probe a(sim, "a", log);
    Probe b(sim, "b", log);
    sim.run(10);
    sim.run(20);
    EXPECT_EQ(log, (std::vector<std::string>{"a.init", "b.init"}));
}

TEST(Simulation, RunStopsAtHorizon)
{
    Simulation sim;
    int runs = 0;
    sim.eventq().scheduleLambda(5, [&] { ++runs; });
    sim.eventq().scheduleLambda(15, [&] { ++runs; });
    Tick t = sim.run(10);
    EXPECT_EQ(t, 10u);
    EXPECT_EQ(runs, 1);
    t = sim.run(20);
    EXPECT_EQ(runs, 2);
}

TEST(Simulation, ExitRequestStopsLoop)
{
    Simulation sim;
    int runs = 0;
    sim.eventq().scheduleLambda(5, [&] {
        ++runs;
        sim.exitSimLoop("done early");
    });
    sim.eventq().scheduleLambda(6, [&] { ++runs; });
    sim.run(100);
    EXPECT_TRUE(sim.exitRequested());
    EXPECT_EQ(sim.exitReason(), "done early");
    EXPECT_EQ(runs, 1);
    sim.clearExit();
    sim.run(100);
    EXPECT_EQ(runs, 2);
}

TEST(Simulation, DrainedQueueStopsAtLastEvent)
{
    Simulation sim;
    sim.eventq().scheduleLambda(7, [] {});
    Tick t = sim.run();
    EXPECT_EQ(t, 7u);
}

TEST(Simulation, MakeRngIsDeterministicPerStream)
{
    SimParams p;
    p.seed = 123;
    Simulation s1(p), s2(p);
    auto a = s1.makeRng(5);
    auto b = s2.makeRng(5);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());
    auto c = s1.makeRng(6);
    EXPECT_NE(s1.makeRng(5).next(), c.next());
}

TEST(Simulation, ObjectsFormStatsHierarchy)
{
    Simulation sim;
    std::vector<std::string> log;
    Probe parent(sim, "net", log);
    Probe child(sim, "router0", log, &parent);
    rasim::stats::Scalar s(&child, "pkts", "packets seen");
    s += 3;
    double v = rasim::stats::findValue(sim.statsRoot(),
                                       "system.net.router0.pkts");
    EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Simulation, ClockPeriodFromConfig)
{
    Config cfg;
    cfg.set("sim.clock_period", 4);
    Simulation sim(SimParams::fromConfig(cfg));
    EXPECT_EQ(sim.rootClock().period(), 4u);
}

TEST(Simulation, LateConstructionDies)
{
    Simulation sim;
    std::vector<std::string> log;
    Probe a(sim, "a", log);
    sim.run(1);
    EXPECT_SIM_ERROR(Probe(sim, "late", log), "after simulation start");
}

} // namespace
