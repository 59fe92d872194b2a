/**
 * @file
 * Tests for the packet type and packetisation arithmetic.
 */

#include <gtest/gtest.h>

#include "noc/packet.hh"

namespace
{

using namespace rasim::noc;

TEST(Packet, LatencyAccessors)
{
    Packet p;
    p.inject_tick = 10;
    p.enter_tick = 14;
    p.deliver_tick = 30;
    EXPECT_EQ(p.latency(), 20u);
    EXPECT_EQ(p.networkLatency(), 16u);
    EXPECT_EQ(p.queueLatency(), 4u);
}

TEST(Packet, FactoryFillsFields)
{
    auto p = makePacket(7, 1, 2, MsgClass::Response, 64, 100, 0xabc);
    EXPECT_EQ(p->id, 7u);
    EXPECT_EQ(p->src, 1u);
    EXPECT_EQ(p->dst, 2u);
    EXPECT_EQ(p->cls, MsgClass::Response);
    EXPECT_EQ(p->size_bytes, 64u);
    EXPECT_EQ(p->inject_tick, 100u);
    EXPECT_EQ(p->context, 0xabcu);
}

TEST(Packet, ToStringMentionsEndpoints)
{
    auto p = makePacket(3, 4, 9, MsgClass::Request, 8, 0);
    std::string s = p->toString();
    EXPECT_NE(s.find("4->9"), std::string::npos);
    EXPECT_NE(s.find("Request"), std::string::npos);
}

TEST(Flit, FlitsForBytesRoundsUp)
{
    EXPECT_EQ(flitsForBytes(0, 16), 1u);
    EXPECT_EQ(flitsForBytes(1, 16), 1u);
    EXPECT_EQ(flitsForBytes(16, 16), 1u);
    EXPECT_EQ(flitsForBytes(17, 16), 2u);
    EXPECT_EQ(flitsForBytes(64, 16), 4u);
    EXPECT_EQ(flitsForBytes(72, 16), 5u);
}

TEST(MsgClass, Names)
{
    EXPECT_STREQ(toString(MsgClass::Request), "Request");
    EXPECT_STREQ(toString(MsgClass::Forward), "Forward");
    EXPECT_STREQ(toString(MsgClass::Response), "Response");
}

} // namespace
