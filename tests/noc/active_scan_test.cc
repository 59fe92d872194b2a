/**
 * @file
 * The occupancy-block scan behind the soa kernels' worklists: every
 * implementation must write exactly the ascending indices of the
 * non-zero blocks and return their count, for both block widths the
 * fabrics use, and the AVX2 lane must agree with the scalar reference
 * on every pattern.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "noc/kernel/active_scan.hh"
#include "sim/cpuid.hh"
#include "sim/rng.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc::kernel;

/** The specification: ascending indices of the non-zero blocks. */
std::vector<int>
reference(const std::vector<std::uint32_t> &occ, std::size_t words)
{
    std::vector<int> out;
    for (std::size_t i = 0; i * words < occ.size(); ++i)
        for (std::size_t w = 0; w < words; ++w)
            if (occ[i * words + w] != 0) {
                out.push_back(static_cast<int>(i));
                break;
            }
    return out;
}

/** The implementations this build and host can run. */
std::vector<std::pair<const char *, ActiveScanFn>>
scans()
{
    std::vector<std::pair<const char *, ActiveScanFn>> s{
        {"scalar", &activeScanScalar}};
#if defined(RASIM_SIMD_AVX2)
    if (cpuid::hostHasAvx2())
        s.emplace_back("avx2", &activeScanAvx2);
#endif
    return s;
}

/** Run every scan over @p occ and compare with the reference. */
void
expectAllMatch(const std::vector<std::uint32_t> &occ, std::size_t words,
               const char *what)
{
    std::size_t blocks = occ.size() / words;
    std::vector<int> want = reference(occ, words);
    for (const auto &[name, scan] : scans()) {
        std::vector<int> got(blocks);
        got.resize(scan(occ.data(), blocks, words, got.data()));
        EXPECT_EQ(got, want) << name << ", " << words
                             << "-word blocks, " << what;
    }
}

constexpr std::size_t widths[] = {8, 16};

TEST(ActiveScan, AllZeroAndAllSet)
{
    for (std::size_t words : widths) {
        std::vector<std::uint32_t> occ(256 * words, 0);
        expectAllMatch(occ, words, "all zero");
        std::fill(occ.begin(), occ.end(), 0xffffffffu);
        expectAllMatch(occ, words, "all set");
    }
}

TEST(ActiveScan, SingleSetWordAtEachPosition)
{
    // One non-zero word, walked across every word of a 4-block array:
    // exercises both 32-byte halves of a 16-word block and the first
    // and last block.
    for (std::size_t words : widths) {
        std::size_t blocks = 4;
        for (std::size_t pos = 0; pos < blocks * words; ++pos) {
            std::vector<std::uint32_t> occ(blocks * words, 0);
            occ[pos] = 1u << (pos % 32);
            expectAllMatch(occ, words, "single word");
            int got[4];
            ASSERT_EQ(activeScanScalar(occ.data(), blocks, words, got),
                      1u);
            EXPECT_EQ(got[0], static_cast<int>(pos / words));
        }
    }
}

TEST(ActiveScan, RandomPatterns)
{
    Rng rng(0x5ca9, 3);
    for (std::size_t words : widths) {
        for (int trial = 0; trial < 50; ++trial) {
            std::size_t blocks = 1 + rng.range(300);
            std::vector<std::uint32_t> occ(blocks * words, 0);
            // Sparse words, so some blocks are all zero and others
            // have a single word set.
            for (std::uint32_t &w : occ)
                if (rng.bernoulli(0.05))
                    w = static_cast<std::uint32_t>(rng.range(1u << 16)) + 1;
            expectAllMatch(occ, words, "random");
        }
    }
}

TEST(ActiveScan, ZeroBlocksAppendsNothing)
{
    for (const auto &[name, scan] : scans()) {
        std::vector<int> out{7, 9};
        std::uint32_t dummy[16] = {1};
        EXPECT_EQ(scan(dummy, 0, 8, out.data()), 0u) << name;
        EXPECT_EQ(out, (std::vector<int>{7, 9})) << name;
    }
}

TEST(ActiveScan, AppendsToNonEmptyOutput)
{
    // A scan into the middle of a buffer leaves the entries before it
    // alone: the soa fabric's ranges share one node-indexed scratch
    // array, each writing only from its own first node on.
    for (std::size_t words : widths) {
        std::vector<std::uint32_t> occ(6 * words, 0);
        occ[1 * words] = 1;
        occ[4 * words + words - 1] = 1;
        for (const auto &[name, scan] : scans()) {
            std::vector<int> out(8, -7);
            out[0] = 42;
            out[1] = -1;
            std::size_t cnt = scan(occ.data(), 6, words, out.data() + 2);
            out.resize(2 + cnt);
            EXPECT_EQ(out, (std::vector<int>{42, -1, 1, 4}))
                << name << ", " << words << "-word blocks";
        }
    }
}

TEST(ActiveScan, SubBlockIndicesCountFromItsFirstNode)
{
    // Scanning nodes [lo, hi) of a larger array gives the reference
    // indices in that window, shifted by lo.
    Rng rng(0x5b, 2);
    for (std::size_t words : widths) {
        std::size_t blocks = 97;
        std::vector<std::uint32_t> occ(blocks * words, 0);
        for (std::uint32_t &w : occ)
            if (rng.bernoulli(0.03))
                w = 1;
        std::vector<int> all = reference(occ, words);
        for (std::size_t lo = 0; lo <= blocks; lo += 13) {
            std::size_t hi = std::min(blocks, lo + 29);
            std::vector<int> want;
            for (int i : all)
                if (static_cast<std::size_t>(i) >= lo &&
                    static_cast<std::size_t>(i) < hi)
                    want.push_back(i - static_cast<int>(lo));
            for (const auto &[name, scan] : scans()) {
                std::vector<int> got(hi - lo + 1);
                got.resize(scan(occ.data() + lo * words, hi - lo, words,
                                got.data()));
                EXPECT_EQ(got, want) << name << ", [" << lo << ", "
                                     << hi << ")";
            }
        }
    }
}

TEST(ActiveScan, Avx2MatchesScalar)
{
#if defined(RASIM_SIMD_AVX2)
    if (!cpuid::hostHasAvx2())
        GTEST_SKIP() << "host lacks AVX2";
    Rng rng(0xa2, 1);
    for (std::size_t words : widths) {
        std::vector<std::uint32_t> occ(512 * words, 0);
        for (std::uint32_t &w : occ)
            if (rng.bernoulli(0.02))
                w = 1u << rng.range(32);
        std::vector<int> scalar(512), avx2(512);
        scalar.resize(activeScanScalar(occ.data(), 512, words,
                                       scalar.data()));
        avx2.resize(activeScanAvx2(occ.data(), 512, words, avx2.data()));
        EXPECT_EQ(avx2, scalar) << words << "-word blocks";
        EXPECT_FALSE(scalar.empty());
    }
#else
    GTEST_SKIP() << "AVX2 scan not compiled in (RASIM_SIMD=off)";
#endif
}

} // namespace
