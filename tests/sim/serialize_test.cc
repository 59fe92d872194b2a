/**
 * @file
 * Tests for the checkpoint archive layer: round-trips of every
 * primitive, nested sections, the CRC32 integrity trailer, and the
 * validation split — corrupt images fail non-fatally (so restores can
 * fall back to an older checkpoint) while structural misuse of a valid
 * image panics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "common/expect_error.hh"
#include "sim/flat_map.hh"
#include "sim/serialize.hh"

namespace
{

using rasim::ArchiveReader;
using rasim::ArchiveWriter;

std::string
sampleArchive()
{
    ArchiveWriter aw;
    aw.beginSection("outer");
    aw.putBool(true);
    aw.putU8(0xab);
    aw.putU32(0xdeadbeef);
    aw.putU64(0x0123456789abcdefULL);
    aw.putI64(-42);
    aw.putDouble(3.25);
    aw.beginSection("inner");
    aw.putString("hello archive");
    aw.endSection();
    aw.putU32(7);
    aw.endSection();
    return aw.finish();
}

TEST(Archive, PrimitivesRoundTrip)
{
    ArchiveReader ar(sampleArchive());
    ASSERT_TRUE(ar.ok()) << ar.error();
    EXPECT_EQ(ar.version(), ArchiveWriter::format_version);
    ar.expectSection("outer");
    EXPECT_TRUE(ar.getBool());
    EXPECT_EQ(ar.getU8(), 0xab);
    EXPECT_EQ(ar.getU32(), 0xdeadbeefu);
    EXPECT_EQ(ar.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(ar.getI64(), -42);
    EXPECT_DOUBLE_EQ(ar.getDouble(), 3.25);
    ar.expectSection("inner");
    EXPECT_EQ(ar.getString(), "hello archive");
    ar.endSection();
    EXPECT_EQ(ar.getU32(), 7u);
    ar.endSection();
}

TEST(Archive, WriteToStreamMatchesFinish)
{
    ArchiveWriter a, b;
    for (ArchiveWriter *aw : {&a, &b}) {
        aw->beginSection("s");
        aw->putU64(99);
        aw->endSection();
    }
    std::ostringstream os;
    a.writeTo(os);
    EXPECT_EQ(os.str(), b.finish());
}

TEST(Archive, IdenticalContentIdenticalBytes)
{
    // The CRC (and any byte-compare of images) relies on the writer
    // being fully deterministic.
    EXPECT_EQ(sampleArchive(), sampleArchive());
}

TEST(Archive, TruncatedImageRejectedNonFatally)
{
    std::string image = sampleArchive();
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{4}, std::size_t{11},
          image.size() - 1}) {
        ArchiveReader ar(image.substr(0, keep));
        EXPECT_FALSE(ar.ok()) << "kept " << keep << " bytes";
        EXPECT_FALSE(ar.error().empty());
    }
}

TEST(Archive, BitFlipAnywhereRejectedNonFatally)
{
    const std::string image = sampleArchive();
    // Flip one bit in every byte position in turn: magic, version,
    // body and trailer corruption must all be caught.
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::string bad = image;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        ArchiveReader ar(std::move(bad));
        EXPECT_FALSE(ar.ok()) << "flip at byte " << i;
    }
}

TEST(Archive, WrongMagicRejected)
{
    std::string image = sampleArchive();
    image[0] = 'X';
    ArchiveReader ar(std::move(image));
    EXPECT_FALSE(ar.ok());
    EXPECT_NE(ar.error().find("magic"), std::string::npos);
}

TEST(Archive, FutureVersionRejected)
{
    std::string image = sampleArchive();
    image[8] = static_cast<char>(ArchiveWriter::format_version + 1);
    // Version is covered by the CRC; patch the trailer so the version
    // check itself is what fires.
    std::uint32_t crc = rasim::crc32(image.data(), image.size() - 4);
    for (int i = 0; i < 4; ++i) {
        image[image.size() - 4 + static_cast<std::size_t>(i)] =
            static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    ArchiveReader ar(std::move(image));
    EXPECT_FALSE(ar.ok());
    EXPECT_NE(ar.error().find("version"), std::string::npos);
}

TEST(Archive, OlderVersionRejected)
{
    // An image of the previous format (6: the meta record has no
    // noc.router and the nocd section still carries a model string)
    // must be refused up front by its version, not misparsed.
    std::string image = sampleArchive();
    image[8] = static_cast<char>(ArchiveWriter::format_version - 1);
    std::uint32_t crc = rasim::crc32(image.data(), image.size() - 4);
    for (int i = 0; i < 4; ++i) {
        image[image.size() - 4 + static_cast<std::size_t>(i)] =
            static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    ArchiveReader ar(std::move(image));
    EXPECT_FALSE(ar.ok());
    EXPECT_NE(ar.error().find("unsupported archive version 6 (expected 7)"),
              std::string::npos)
        << ar.error();
}

TEST(Archive, WrongSectionTagPanics)
{
    ArchiveReader ar(sampleArchive());
    ASSERT_TRUE(ar.ok());
    EXPECT_SIM_ERROR(ar.expectSection("wrong"), "section");
}

TEST(Archive, ReadPastSectionEndPanics)
{
    ArchiveWriter aw;
    aw.beginSection("small");
    aw.putU8(1);
    aw.endSection();
    ArchiveReader ar(aw.finish());
    ASSERT_TRUE(ar.ok());
    ar.expectSection("small");
    EXPECT_EQ(ar.getU8(), 1);
    EXPECT_SIM_ERROR(ar.getU64(), "");
}

TEST(Archive, FlatMapWritesSameBytesAsSortedMapLoop)
{
    // The in-flight tables moved from std::map (plus manual
    // sort-before-save loops) onto FlatMap. The archive format is
    // unchanged because FlatMap iterates in ascending key order — the
    // exact bytes the std::map-era code wrote. Checkpoint images from
    // before and after the container swap therefore interoperate.
    rasim::FlatMap<std::uint64_t, std::uint64_t> fm;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (std::uint64_t k : {901u, 4u, 77u, 12u, 500u, 3u, 44u}) {
        fm.insertOrAssign(k, k * 10);
        ref[k] = k * 10;
    }
    fm.erase(77);
    ref.erase(77);

    auto dump = [](const auto &table) {
        ArchiveWriter aw;
        aw.beginSection("table");
        aw.putU64(table.size());
        for (const auto &[key, value] : table) {
            aw.putU64(key);
            aw.putU64(value);
        }
        aw.endSection();
        return aw.finish();
    };
    EXPECT_EQ(dump(fm), dump(ref));
}

TEST(Archive, PutAfterFinishPanics)
{
    ArchiveWriter aw;
    aw.beginSection("s");
    aw.putU8(1);
    aw.endSection();
    aw.finish();
    EXPECT_SIM_ERROR(aw.putU8(2), "");
}

} // namespace
