/**
 * @file
 * The occupancy-block scan behind the soa kernels' worklists: every
 * implementation must append exactly the ascending indices of the
 * non-zero blocks, for both block widths the fabrics use, and the
 * AVX2 lane must agree with the scalar reference on every pattern.
 */

#include <gtest/gtest.h>

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
        std::vector<int> got;
        scan(occ.data(), blocks, words, got);
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
            std::vector<int> got;
            activeScanScalar(occ.data(), blocks, words, got);
            ASSERT_EQ(got.size(), 1u);
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
        scan(dummy, 0, 8, out);
        EXPECT_EQ(out, (std::vector<int>{7, 9})) << name;
    }
}

TEST(ActiveScan, AppendsToNonEmptyOutput)
{
    for (std::size_t words : widths) {
        std::vector<std::uint32_t> occ(6 * words, 0);
        occ[1 * words] = 1;
        occ[4 * words + words - 1] = 1;
        for (const auto &[name, scan] : scans()) {
            std::vector<int> out{42, -1};
            scan(occ.data(), 6, words, out);
            EXPECT_EQ(out, (std::vector<int>{42, -1, 1, 4}))
                << name << ", " << words << "-word blocks";
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
        std::vector<int> scalar, avx2;
        activeScanScalar(occ.data(), 512, words, scalar);
        activeScanAvx2(occ.data(), 512, words, avx2);
        EXPECT_EQ(avx2, scalar) << words << "-word blocks";
        EXPECT_FALSE(scalar.empty());
    }
#else
    GTEST_SKIP() << "AVX2 scan not compiled in (RASIM_SIMD=off)";
#endif
}

} // namespace
