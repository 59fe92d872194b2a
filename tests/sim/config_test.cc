/**
 * @file
 * Tests for the typed configuration store.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <string>

#include "sim/config.hh"
#include "sim/logging.hh"

namespace
{

using rasim::Config;

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getString("x", "d"), "d");
    EXPECT_EQ(c.getInt("x", -3), -3);
    EXPECT_EQ(c.getUInt("x", 9u), 9u);
    EXPECT_DOUBLE_EQ(c.getDouble("x", 2.5), 2.5);
    EXPECT_TRUE(c.getBool("x", true));
}

TEST(Config, SetAndGetTyped)
{
    Config c;
    c.set("a.str", std::string("hello"));
    c.set("a.int", std::int64_t(-42));
    c.set("a.uint", std::uint64_t(1ULL << 40));
    c.set("a.dbl", 3.25);
    c.set("a.bool", true);
    EXPECT_EQ(c.getString("a.str", ""), "hello");
    EXPECT_EQ(c.getInt("a.int", 0), -42);
    EXPECT_EQ(c.getUInt("a.uint", 0), 1ULL << 40);
    EXPECT_DOUBLE_EQ(c.getDouble("a.dbl", 0), 3.25);
    EXPECT_TRUE(c.getBool("a.bool", false));
}

TEST(Config, BoolSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
        c.set("k", std::string(t));
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "FALSE", "No"}) {
        c.set("k", std::string(f));
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, HexIntegersParse)
{
    Config c;
    c.set("k", std::string("0x10"));
    EXPECT_EQ(c.getUInt("k", 0), 16u);
    EXPECT_EQ(c.getInt("k", 0), 16);
}

TEST(Config, ParseArg)
{
    Config c;
    c.parseArg("noc.vcs = 4");
    EXPECT_EQ(c.getUInt("noc.vcs", 0), 4u);
}

TEST(Config, ParseArgsSkipsNonAssignments)
{
    Config c;
    const char *argv[] = {"prog", "--help", "a=1", "b = two"};
    c.parseArgs(4, const_cast<char **>(argv));
    EXPECT_EQ(c.getUInt("a", 0), 1u);
    EXPECT_EQ(c.getString("b", ""), "two");
    // "--help" was skipped, not stored: nothing is left unread.
    EXPECT_TRUE(c.unreadKeysWithPrefix("").empty());
}

TEST(Config, OverwriteTakesLastValue)
{
    Config c;
    c.set("k", 1);
    c.set("k", 2);
    EXPECT_EQ(c.getInt("k", 0), 2);
}

TEST(Config, MalformedIntIsFatal)
{
    Config c;
    c.set("k", std::string("notanumber"));
    EXPECT_SIM_ERROR(c.getInt("k", 0), "not an integer");
}

TEST(Config, NegativeForUnsignedIsFatal)
{
    Config c;
    c.set("k", std::string("-5"));
    EXPECT_SIM_ERROR(c.getUInt("k", 0), "not an unsigned");
}

TEST(Config, MalformedDoubleIsFatal)
{
    Config c;
    for (const char *v : {"", "abc", "1.5x"}) {
        c.set("k", std::string(v));
        EXPECT_SIM_ERROR(c.getDouble("k", 0), "' is not a number") << v;
    }
}

TEST(Config, NonFiniteDoubleIsFatal)
{
    // NaN would slip through every validate() written as "x < 0" or
    // "alpha <= 0 || alpha > 1"; 1e999 overflows to inf.
    Config c;
    for (const char *v : {"nan", "NaN", "inf", "-inf", "1e999", "-1e999"}) {
        c.set("k", std::string(v));
        EXPECT_SIM_ERROR(c.getDouble("k", 0), "is not a finite number")
            << v;
    }
    c.set("k", std::string("1e-3"));
    EXPECT_DOUBLE_EQ(c.getDouble("k", 0), 1e-3);
}

TEST(Config, FirstDifferenceNamesTheKeyOnlyOneSideDeclares)
{
    using rasim::config::Record;
    Record now = {{"a", "1"}, {"c", "3"}, {"d", "4"}};
    EXPECT_EQ(rasim::config::firstDifference(now, now), "");
    // A key retired since the image was written, and one added since.
    Record old = {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}};
    EXPECT_EQ(rasim::config::firstDifference(old, now), "b");
    EXPECT_EQ(rasim::config::firstDifference(now, old), "b");
    Record tail = {{"a", "1"}, {"c", "3"}};
    EXPECT_EQ(rasim::config::firstDifference(tail, now), "d");
    EXPECT_EQ(rasim::config::firstDifference(now, tail), "d");
    Record other = {{"a", "1"}, {"c", "5"}, {"d", "4"}};
    EXPECT_EQ(rasim::config::firstDifference(other, now), "c");
}

TEST(Config, UnreadKeysTrackEveryGetter)
{
    Config c;
    c.set("noc.rows", 8);
    c.set("noc.cols", 8);
    c.set("noc.colums", 4); // the classic typo — nobody reads it
    EXPECT_EQ(c.unreadKeysWithPrefix("noc.").size(), 3u);
    (void)c.getUInt("noc.rows", 0);
    (void)c.getString("noc.cols", ""); // any getter counts as a read
    auto unread = c.unreadKeysWithPrefix("noc.");
    ASSERT_EQ(unread.size(), 1u);
    EXPECT_EQ(unread[0], "noc.colums");
    // Prefix filtering: an unrelated key is not reported under noc.
    c.set("cpu.count", 64);
    EXPECT_EQ(c.unreadKeysWithPrefix("noc.").size(), 1u);
}

TEST(Config, WarnUnreadWarnsOncePerMisspelledKey)
{
    Config c;
    c.set("mem.l1_sets", 16);
    c.set("mem.l1_stes", 32); // typo
    c.set("noc.colums", 4);   // typo
    (void)c.getUInt("mem.l1_sets", 0);
    auto before = rasim::warnCount();
    c.warnUnread();
    EXPECT_EQ(rasim::warnCount() - before, 2u);
}

TEST(Config, CopiesCarryReadMarks)
{
    Config c;
    c.set("a.k", 1);
    (void)c.getInt("a.k", 0);
    Config copy = c;
    EXPECT_TRUE(copy.unreadKeysWithPrefix("a.").empty());
}

} // namespace
