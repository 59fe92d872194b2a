/**
 * @file
 * Tests for scalar/average/value stats, distributions, groups and text
 * output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "stats/distribution.hh"
#include "stats/group.hh"
#include "stats/output.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim::stats;

TEST(Scalar, AccumulatesAndResets)
{
    Group root(nullptr, "root");
    Scalar s(&root, "count", "a counter");
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
}

TEST(Scalar, SetOverwrites)
{
    Group root(nullptr, "root");
    Scalar s(&root, "gauge", "");
    s.set(7);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(Average, MeanOfSamples)
{
    Group root(nullptr, "root");
    Average a(&root, "lat", "latency");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
}

TEST(Value, EvaluatesCallback)
{
    Group root(nullptr, "root");
    double x = 1.0;
    Value v(&root, "derived", "", [&] { return x * 2; });
    EXPECT_DOUBLE_EQ(v.value(), 2.0);
    x = 5.0;
    EXPECT_DOUBLE_EQ(v.value(), 10.0);
}

TEST(Distribution, Moments)
{
    Group root(nullptr, "root");
    Distribution d(&root, "dist", "");
    d.sample(2);
    d.sample(4);
    d.sample(4);
    d.sample(4);
    d.sample(5);
    d.sample(5);
    d.sample(7);
    d.sample(9);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 2.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 9.0);
    // Sample stddev of {2,4,4,4,5,5,7,9} is sqrt(32/7).
    EXPECT_NEAR(d.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Distribution, EmptyIsZero)
{
    Group root(nullptr, "root");
    Distribution d(&root, "dist", "");
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, WeightedSamples)
{
    Group root(nullptr, "root");
    Distribution d(&root, "dist", "");
    d.sample(10, 4);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 10.0);
}

TEST(Group, PathsAreHierarchical)
{
    Group root(nullptr, "system");
    Group mid(&root, "noc");
    Group leaf(&mid, "router3");
    EXPECT_EQ(leaf.path(), "system.noc.router3");
}

TEST(Group, StatDeregistersOnDestruction)
{
    Group root(nullptr, "system");
    {
        Scalar tmp(&root, "tmp", "");
        EXPECT_EQ(root.statList().size(), 1u);
    }
    EXPECT_TRUE(root.statList().empty());
}

TEST(Output, TextDumpContainsPathsValuesDescriptions)
{
    Group root(nullptr, "system");
    Group noc(&root, "noc");
    Scalar s(&noc, "pkts", "packets injected");
    s += 12;
    std::ostringstream os;
    dumpText(os, root);
    std::string text = os.str();
    EXPECT_NE(text.find("system.noc.pkts"), std::string::npos);
    EXPECT_NE(text.find("12"), std::string::npos);
    EXPECT_NE(text.find("packets injected"), std::string::npos);
}

TEST(Output, FindValueLocatesSubValues)
{
    Group root(nullptr, "system");
    Distribution d(&root, "d", "");
    d.sample(3);
    d.sample(5);
    EXPECT_DOUBLE_EQ(findValue(root, "system.d::mean"), 4.0);
    EXPECT_DOUBLE_EQ(findValue(root, "system.d::count"), 2.0);
    EXPECT_TRUE(std::isnan(findValue(root, "system.nope")));
}

} // namespace
