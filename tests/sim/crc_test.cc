/**
 * @file
 * Tests for the archive and attestation checksums: the standard check
 * values of CRC-32/ISO-HDLC and CRC-64/XZ, agreement with a bitwise
 * reference at every length and alignment the table-driven fast path
 * splits differently, and a first call made by several threads at once
 * (run under ThreadSanitizer by scripts/run_tsan.sh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/rng.hh"
#include "sim/serialize.hh"

namespace
{

using rasim::crc32;
using rasim::crc64;

/** Bit-at-a-time reflected CRC: the definition, with no tables.
 *  Streams, so a caller can extend one register byte by byte and read
 *  the CRC of every prefix off it. */
template <typename Word>
struct BitwiseCrc
{
    Word poly;
    Word reg = ~Word(0);

    void
    add(unsigned char byte)
    {
        reg ^= byte;
        for (int k = 0; k < 8; ++k)
            reg = (reg & 1u) ? poly ^ (reg >> 1) : reg >> 1;
    }

    Word value() const { return ~reg; }
};

BitwiseCrc<std::uint32_t>
refCrc32()
{
    return {0xedb88320u};
}

BitwiseCrc<std::uint64_t>
refCrc64()
{
    return {0xc96c5795d7870f42ull};
}

template <typename Word>
Word
refOf(BitwiseCrc<Word> ref, const std::vector<unsigned char> &buf)
{
    for (unsigned char b : buf)
        ref.add(b);
    return ref.value();
}

std::vector<unsigned char>
randomBytes(std::size_t n)
{
    rasim::Rng rng(0xc2c, 8);
    std::vector<unsigned char> v(n);
    for (auto &b : v)
        b = static_cast<unsigned char>(rng.range(256));
    return v;
}

TEST(Crc, CheckValues)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc64(check.data(), check.size()), 0x995DC9BBDF1939FAull);
    EXPECT_EQ(crc64(check), 0x995DC9BBDF1939FAull);
    EXPECT_EQ(crc32(check.data(), 0), 0u);
    EXPECT_EQ(crc64(check.data(), 0), 0u);
}

TEST(Crc, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    constexpr std::size_t max_len = 4096;
    constexpr std::size_t max_offset = 7;
    const std::vector<unsigned char> buf =
        randomBytes(max_len + max_offset);
    for (std::size_t off = 0; off <= max_offset; ++off) {
        const unsigned char *p = buf.data() + off;
        auto ref32 = refCrc32();
        auto ref64 = refCrc64();
        for (std::size_t len = 0; len <= max_len; ++len) {
            ASSERT_EQ(crc32(p, len), ref32.value())
                << "crc32 offset " << off << " length " << len;
            ASSERT_EQ(crc64(p, len), ref64.value())
                << "crc64 offset " << off << " length " << len;
            if (len < max_len) {
                ref32.add(p[len]);
                ref64.add(p[len]);
            }
        }
    }
}

TEST(Crc, ConcurrentFirstCallsAgree)
{
    const std::vector<unsigned char> buf = randomBytes(1500);
    const std::uint32_t want32 = refOf(refCrc32(), buf);
    const std::uint64_t want64 = refOf(refCrc64(), buf);
    constexpr int threads = 4;
    std::vector<std::uint32_t> got32(threads, 0);
    std::vector<std::uint64_t> got64(threads, 0);
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            // Alternate which checksum each thread touches first.
            if (t % 2 == 0) {
                got32[t] = crc32(buf.data(), buf.size());
                got64[t] = crc64(buf.data(), buf.size());
            } else {
                got64[t] = crc64(buf.data(), buf.size());
                got32[t] = crc32(buf.data(), buf.size());
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (auto &th : pool)
        th.join();
    for (int t = 0; t < threads; ++t) {
        EXPECT_EQ(got32[t], want32) << "thread " << t;
        EXPECT_EQ(got64[t], want64) << "thread " << t;
    }
}

} // namespace
