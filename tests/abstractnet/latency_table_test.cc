/**
 * @file
 * Tests for the reciprocal latency table.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <sstream>

#include "abstractnet/latency_model.hh"
#include "abstractnet/latency_table.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace
{

using namespace rasim;
using namespace rasim::abstractnet;

noc::NocParams
defaultParams()
{
    return noc::NocParams{};
}

TEST(LatencyTable, SeedsWithZeroLoad)
{
    auto p = defaultParams();
    LatencyTable t(p, 14);
    for (int h = 0; h <= 14; ++h) {
        for (int v = 0; v < noc::num_vnets; ++v) {
            EXPECT_DOUBLE_EQ(
                t.estimate(v, h, 1),
                static_cast<double>(zeroLoadLatency(p, h, 1)));
        }
    }
    EXPECT_EQ(t.observations(), 0u);
}

TEST(LatencyTable, FirstObservationReplacesSeed)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 0.1);
    t.observe(0, 3, 1, 50);
    EXPECT_DOUBLE_EQ(t.estimate(0, 3, 1), 50.0);
    EXPECT_EQ(t.observations(), 1u);
}

TEST(LatencyTable, EwmaConvergesToObservations)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 0.2);
    for (int i = 0; i < 200; ++i)
        t.observe(1, 5, 1, 33);
    EXPECT_NEAR(t.estimate(1, 5, 1), 33.0, 1e-6);
}

TEST(LatencyTable, EwmaTracksShifts)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 0.5);
    for (int i = 0; i < 50; ++i)
        t.observe(0, 2, 1, 10);
    for (int i = 0; i < 50; ++i)
        t.observe(0, 2, 1, 40);
    EXPECT_NEAR(t.estimate(0, 2, 1), 40.0, 1e-3);
}

TEST(LatencyTable, SerializationFactoredOut)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 1.0);
    // Observe a 5-flit packet with latency 20: entry stores 16.
    t.observe(0, 4, 5, 20);
    EXPECT_DOUBLE_EQ(t.estimate(0, 4, 1), 16.0);
    EXPECT_DOUBLE_EQ(t.estimate(0, 4, 3), 18.0);
    EXPECT_DOUBLE_EQ(t.estimate(0, 4, 5), 20.0);
}

TEST(LatencyTable, VnetsAreIndependent)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 1.0);
    t.observe(0, 3, 1, 100);
    EXPECT_DOUBLE_EQ(t.estimate(0, 3, 1), 100.0);
    EXPECT_DOUBLE_EQ(
        t.estimate(2, 3, 1),
        static_cast<double>(zeroLoadLatency(p, 3, 1)));
}

TEST(LatencyTable, DistancesClampToMax)
{
    auto p = defaultParams();
    LatencyTable t(p, 4, 1.0);
    t.observe(0, 99, 1, 77); // clamps to entry 4
    EXPECT_DOUBLE_EQ(t.estimate(0, 4, 1), 77.0);
    EXPECT_DOUBLE_EQ(t.estimate(0, 50, 1), 77.0);
}

TEST(LatencyTable, ResetRevertsToSeed)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 1.0);
    t.observe(0, 3, 1, 100);
    t.reset();
    EXPECT_EQ(t.observations(), 0u);
    EXPECT_DOUBLE_EQ(
        t.estimate(0, 3, 1),
        static_cast<double>(zeroLoadLatency(p, 3, 1)));
}

TEST(LatencyTable, BadAlphaIsFatal)
{
    auto p = defaultParams();
    EXPECT_SIM_ERROR(LatencyTable(p, 14, 0.0), "EWMA weight");
    EXPECT_SIM_ERROR(LatencyTable(p, 14, 1.5), "EWMA weight");
}

TEST(LatencyTable, SaveLoadRoundTrip)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 0.3);
    t.observe(0, 2, 1, 25);
    t.observe(0, 2, 1, 35);
    t.observe(2, 7, 5, 60);
    std::stringstream ss;
    t.save(ss);
    LatencyTable u(p, 14, 0.3);
    u.load(ss);
    EXPECT_EQ(u.observations(), t.observations());
    EXPECT_DOUBLE_EQ(u.estimate(0, 2, 1), t.estimate(0, 2, 1));
    EXPECT_DOUBLE_EQ(u.estimate(2, 7, 5), t.estimate(2, 7, 5));
    // Untouched entries still fall back to the zero-load seed.
    EXPECT_DOUBLE_EQ(u.estimate(1, 3, 1),
                     static_cast<double>(zeroLoadLatency(p, 3, 1)));
}

TEST(LatencyTable, LoadRejectsGarbageAndMismatch)
{
    auto p = defaultParams();
    LatencyTable t(p, 4, 0.3);
    std::stringstream bad("vnet,hops,ewma,samples\n0,2\n");
    EXPECT_SIM_ERROR(t.load(bad), "malformed");
    std::stringstream deep("0,99,10.0,5\n");
    EXPECT_SIM_ERROR(t.load(deep), "geometry");
}

TEST(LatencyTable, PairGranularityRefinesPerFlow)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 1.0, LatencyTable::Granularity::Pair, 64);
    // Flow 0->9 is congested; flow 9->0 (same distance) is not.
    t.observe(0, 2, 1, 80, 0, 9);
    t.observe(0, 2, 1, 12, 9, 0);
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1, 0, 9), 80.0);
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1, 9, 0), 12.0);
    // An unseen flow of the same distance falls back to the distance
    // aggregate (here: EWMA over both observations with alpha 1 ->
    // last value).
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1, 1, 10), 12.0);
    // And without endpoints, the distance aggregate answers.
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1), 12.0);
}

TEST(LatencyTable, DistanceGranularityIgnoresEndpoints)
{
    auto p = defaultParams();
    LatencyTable t(p, 14, 1.0);
    t.observe(0, 2, 1, 80, 0, 9);
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1, 9, 0), 80.0);
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1, 0, 9), 80.0);
}

TEST(LatencyTable, FromConfigReadsAlphaAndGranularity)
{
    auto p = defaultParams();
    AbstractParams d = config::parse<AbstractParams>(Config());
    EXPECT_EQ(d.granularity, LatencyTable::Granularity::Distance);
    EXPECT_DOUBLE_EQ(d.ewma_alpha, 0.05);

    Config cfg;
    cfg.set("abstract.ewma_alpha", 1.0);
    cfg.set("abstract.granularity", std::string("pair"));
    AbstractParams a = config::parse<AbstractParams>(cfg);
    LatencyTable t(p, 14, a.ewma_alpha, a.granularity, 64);
    EXPECT_EQ(t.granularity(), LatencyTable::Granularity::Pair);
    // alpha 1: the estimate is the last observation.
    t.observe(0, 2, 1, 80, 0, 9);
    t.observe(0, 2, 1, 30, 0, 9);
    EXPECT_DOUBLE_EQ(t.estimate(0, 2, 1, 0, 9), 30.0);
}

TEST(LatencyTable, FromConfigRejectsUnknownGranularity)
{
    for (const char *name : {"pairs", "Pair", ""}) {
        Config cfg;
        cfg.set("abstract.granularity", std::string(name));
        logging::ThrowOnError guard;
        try {
            config::parse<AbstractParams>(cfg);
            ADD_FAILURE() << "'" << name << "' was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Config) << name;
            EXPECT_NE(std::string(e.what()).find("abstract.granularity"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(LatencyTable, PairWithoutNodeCountIsFatal)
{
    auto p = defaultParams();
    EXPECT_SIM_ERROR(
        LatencyTable(p, 14, 0.5, LatencyTable::Granularity::Pair, 0),
        "node count");
}

} // namespace
