/**
 * @file
 * Tests for SmallVector: inline storage up to N elements, spilling
 * beyond, value semantics (copy, move, moved-from state) and element
 * lifetimes for non-trivial types.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/small_vector.hh"

namespace
{

using rasim::SmallVector;

/** Counts live instances so leaks and double destroys show up. */
struct Tracked
{
    static inline int live = 0;

    explicit Tracked(int v) : value(v) { ++live; }
    Tracked(const Tracked &o) : value(o.value) { ++live; }
    Tracked(Tracked &&o) noexcept : value(o.value) { ++live; }
    Tracked &operator=(const Tracked &) = default;
    ~Tracked() { --live; }

    int value;
};

std::vector<int>
values(const SmallVector<Tracked, 2> &v)
{
    std::vector<int> out;
    for (const Tracked &t : v)
        out.push_back(t.value);
    return out;
}

TEST(SmallVector, StaysInlineUpToN)
{
    SmallVector<int, 3> v;
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(v.isInline());
    EXPECT_EQ(v.capacity(), 3u);
    for (int i = 0; i < 3; ++i)
        v.push_back(i);
    EXPECT_TRUE(v.isInline());
    v.push_back(3);
    EXPECT_FALSE(v.isInline());
    EXPECT_EQ(v.capacity(), 6u);
    EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
              (std::vector<int>{0, 1, 2, 3}));
}

TEST(SmallVector, ClearKeepsSpilledCapacity)
{
    SmallVector<int, 2> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(i);
    std::size_t cap = v.capacity();
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_FALSE(v.isInline());
    EXPECT_EQ(v.capacity(), cap);
    v.push_back(7);
    EXPECT_EQ(v[0], 7);
}

TEST(SmallVector, InsertKeepsOrderAcrossSpill)
{
    SmallVector<int, 2> v;
    v.insert(v.end(), 5);
    v.insert(v.begin(), 1);
    v.insert(v.begin() + 1, 3); // spills
    v.insert(v.end(), 9);
    int *at = v.insert(v.begin() + 2, 4);
    EXPECT_EQ(*at, 4);
    EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
              (std::vector<int>{1, 3, 4, 5, 9}));
}

TEST(SmallVector, MoveOfInlineMovesElements)
{
    Tracked::live = 0;
    {
        SmallVector<Tracked, 2> a;
        a.emplace_back(1);
        a.emplace_back(2);
        SmallVector<Tracked, 2> b(std::move(a));
        EXPECT_TRUE(a.empty());
        EXPECT_TRUE(a.isInline());
        EXPECT_TRUE(b.isInline());
        EXPECT_EQ(values(b), (std::vector<int>{1, 2}));
        EXPECT_EQ(Tracked::live, 2);
        a.emplace_back(3); // a moved-from vector is reusable
        a = std::move(b);
        EXPECT_EQ(values(a), (std::vector<int>{1, 2}));
        EXPECT_EQ(Tracked::live, 2);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallVector, MoveOfSpilledStealsBuffer)
{
    Tracked::live = 0;
    {
        SmallVector<Tracked, 2> a;
        for (int i = 0; i < 5; ++i)
            a.emplace_back(i);
        const Tracked *buf = &*a.begin();
        SmallVector<Tracked, 2> b(std::move(a));
        EXPECT_EQ(&*b.begin(), buf);
        EXPECT_TRUE(a.empty());
        EXPECT_TRUE(a.isInline());
        EXPECT_EQ(values(b), (std::vector<int>{0, 1, 2, 3, 4}));
        EXPECT_EQ(Tracked::live, 5);

        SmallVector<Tracked, 2> c;
        c.emplace_back(9);
        c = std::move(b);
        EXPECT_EQ(&*c.begin(), buf);
        EXPECT_EQ(Tracked::live, 5);
        std::swap(a, c);
        EXPECT_EQ(values(a), (std::vector<int>{0, 1, 2, 3, 4}));
        EXPECT_TRUE(c.empty());
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallVector, CopyIsDeep)
{
    Tracked::live = 0;
    {
        SmallVector<Tracked, 2> a;
        for (int i = 0; i < 3; ++i)
            a.emplace_back(i);
        SmallVector<Tracked, 2> b(a);
        b[0].value = 42;
        EXPECT_EQ(values(a), (std::vector<int>{0, 1, 2}));
        EXPECT_EQ(values(b), (std::vector<int>{42, 1, 2}));
        SmallVector<Tracked, 2> c;
        c.emplace_back(7);
        c = a;
        EXPECT_EQ(values(c), (std::vector<int>{0, 1, 2}));
        EXPECT_EQ(Tracked::live, 9);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(SmallVector, PushBackOfOwnElementSurvivesSpill)
{
    SmallVector<std::string, 2> v;
    v.push_back(std::string(40, 'a')); // past the small-string buffer
    v.push_back("b");
    v.push_back(v[0]); // spills while the argument lives in v
    EXPECT_FALSE(v.isInline());
    EXPECT_EQ(v[2], std::string(40, 'a'));
    EXPECT_EQ(v[0], v[2]);
}

TEST(SmallVector, HoldsCallables)
{
    int hits = 0;
    SmallVector<std::pair<bool, std::function<void()>>, 2> v;
    for (int i = 0; i < 4; ++i)
        v.emplace_back(i % 2 == 0, [&hits, i] { hits += i; });
    auto moved = std::move(v);
    for (auto &[flag, fn] : moved)
        fn();
    EXPECT_EQ(hits, 0 + 1 + 2 + 3);
    EXPECT_TRUE(moved[2].first);
}

} // namespace
