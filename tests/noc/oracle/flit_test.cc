/**
 * @file
 * Tests for the object oracle's flit type.
 */

#include <gtest/gtest.h>

#include "noc/oracle/flit.hh"

namespace
{

using namespace rasim::noc;

TEST(Flit, HeadTailPredicates)
{
    Flit f;
    f.type = Flit::Type::Head;
    EXPECT_TRUE(f.isHead());
    EXPECT_FALSE(f.isTail());
    f.type = Flit::Type::Tail;
    EXPECT_FALSE(f.isHead());
    EXPECT_TRUE(f.isTail());
    f.type = Flit::Type::HeadTail;
    EXPECT_TRUE(f.isHead());
    EXPECT_TRUE(f.isTail());
    f.type = Flit::Type::Body;
    EXPECT_FALSE(f.isHead());
    EXPECT_FALSE(f.isTail());
}

} // namespace
