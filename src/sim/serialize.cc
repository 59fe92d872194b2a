#include "sim/serialize.hh"

#include <bit>
#include <cstring>
#include <ostream>
#include <utility>

#include "sim/logging.hh"
#include "stats/distribution.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace rasim
{

namespace
{

/** Stat type tags recorded per stat so restore validates alignment.
 *  Tag 3 was the retired histogram's; the values are part of every
 *  archive's bytes, so none is renumbered. */
enum StatKind : std::uint8_t
{
    kind_scalar = 0,
    kind_average = 1,
    kind_distribution = 2,
    kind_value = 4,
};

/**
 * Slicing-by-8 lookup tables for a reflected CRC of up to 64 bits:
 * t[0] is the classic byte-at-a-time table, and t[k][b] is the CRC
 * register after byte b followed by k zero bytes, so eight table
 * lookups fold eight input bytes at once. Built at compile time, so
 * no thread ever sees them half-initialised.
 */
template <typename Word>
struct CrcTables
{
    Word t[8][256] = {};

    constexpr explicit CrcTables(Word poly)
    {
        for (unsigned i = 0; i < 256; ++i) {
            Word c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? poly ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (unsigned i = 0; i < 256; ++i) {
            for (int k = 1; k < 8; ++k)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
        }
    }
};

constexpr CrcTables<std::uint32_t> crc32_tables(0xedb88320u);
constexpr CrcTables<std::uint64_t> crc64_tables(0xc96c5795d7870f42ull);

/** Advance the (pre-inverted) CRC register @p c over @p len bytes. */
template <typename Word>
Word
crcUpdate(const CrcTables<Word> &tab, Word c, const unsigned char *p,
          std::size_t len)
{
    // The eight-byte step xors a little-endian load into the low bytes
    // of the register; a big-endian host takes the byte loop only.
    if constexpr (std::endian::native == std::endian::little) {
        for (; len >= 8; p += 8, len -= 8) {
            std::uint64_t x = 0;
            std::memcpy(&x, p, sizeof(x));
            x ^= c;
            c = tab.t[7][x & 0xffu] ^ tab.t[6][(x >> 8) & 0xffu] ^
                tab.t[5][(x >> 16) & 0xffu] ^
                tab.t[4][(x >> 24) & 0xffu] ^
                tab.t[3][(x >> 32) & 0xffu] ^
                tab.t[2][(x >> 40) & 0xffu] ^
                tab.t[1][(x >> 48) & 0xffu] ^ tab.t[0][x >> 56];
        }
    }
    for (; len > 0; ++p, --len)
        c = tab.t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    return ~crcUpdate<std::uint32_t>(
        crc32_tables, ~0u, static_cast<const unsigned char *>(data), len);
}

std::uint64_t
crc64(const void *data, std::size_t len)
{
    return ~crcUpdate<std::uint64_t>(
        crc64_tables, ~0ull, static_cast<const unsigned char *>(data),
        len);
}

std::uint64_t
crc64(const std::string &bytes)
{
    return crc64(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------
// ArchiveWriter
// ---------------------------------------------------------------------

void
ArchiveWriter::raw(const void *p, std::size_t n)
{
    if (finished_)
        panic("ArchiveWriter: write after finish()");
    body_.append(static_cast<const char *>(p), n);
}

void
ArchiveWriter::beginSection(const std::string &tag)
{
    putU32(static_cast<std::uint32_t>(tag.size()));
    raw(tag.data(), tag.size());
    open_.push_back(body_.size());
    std::uint64_t placeholder = 0;
    raw(&placeholder, sizeof(placeholder));
}

void
ArchiveWriter::endSection()
{
    if (open_.empty())
        panic("ArchiveWriter: endSection() without open section");
    std::size_t at = open_.back();
    open_.pop_back();
    std::uint64_t len = body_.size() - (at + sizeof(std::uint64_t));
    std::memcpy(&body_[at], &len, sizeof(len));
}

void
ArchiveWriter::putBool(bool v)
{
    putU8(v ? 1 : 0);
}

void
ArchiveWriter::putU8(std::uint8_t v)
{
    raw(&v, sizeof(v));
}

void
ArchiveWriter::putU32(std::uint32_t v)
{
    raw(&v, sizeof(v));
}

void
ArchiveWriter::putU64(std::uint64_t v)
{
    raw(&v, sizeof(v));
}

void
ArchiveWriter::putI64(std::int64_t v)
{
    raw(&v, sizeof(v));
}

void
ArchiveWriter::putDouble(double v)
{
    raw(&v, sizeof(v));
}

void
ArchiveWriter::putString(const std::string &s)
{
    putU64(s.size());
    raw(s.data(), s.size());
}

std::string
ArchiveWriter::finish()
{
    if (!open_.empty())
        panic("ArchiveWriter: finish() with ", open_.size(),
              " unclosed section(s)");
    finished_ = true;
    std::string out;
    out.reserve(sizeof(magic) + sizeof(format_version) + body_.size() +
                sizeof(std::uint32_t));
    out.append(magic, sizeof(magic));
    std::uint32_t version = format_version;
    out.append(reinterpret_cast<const char *>(&version), sizeof(version));
    out.append(body_);
    std::uint32_t crc = crc32(out.data(), out.size());
    out.append(reinterpret_cast<const char *>(&crc), sizeof(crc));
    return out;
}

void
ArchiveWriter::writeTo(std::ostream &os)
{
    std::string bytes = finish();
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// ArchiveReader
// ---------------------------------------------------------------------

ArchiveReader::ArchiveReader(std::string bytes) : bytes_(std::move(bytes))
{
    constexpr std::size_t header =
        sizeof(ArchiveWriter::magic) + sizeof(std::uint32_t);
    constexpr std::size_t trailer = sizeof(std::uint32_t);
    if (bytes_.size() < header + trailer) {
        error_ = "archive truncated (" + std::to_string(bytes_.size()) +
                 " bytes)";
        return;
    }
    if (std::memcmp(bytes_.data(), ArchiveWriter::magic,
                    sizeof(ArchiveWriter::magic)) != 0) {
        error_ = "bad magic (not a rasim checkpoint)";
        return;
    }
    std::memcpy(&version_, bytes_.data() + sizeof(ArchiveWriter::magic),
                sizeof(version_));
    if (version_ != ArchiveWriter::format_version) {
        error_ = "unsupported archive version " + std::to_string(version_) +
                 " (expected " +
                 std::to_string(ArchiveWriter::format_version) + ")";
        return;
    }
    std::uint32_t stored = 0;
    std::memcpy(&stored, bytes_.data() + bytes_.size() - trailer,
                sizeof(stored));
    std::uint32_t computed = crc32(bytes_.data(), bytes_.size() - trailer);
    if (stored != computed) {
        error_ = "CRC mismatch (archive corrupted)";
        return;
    }
    pos_ = header;
    end_ = bytes_.size() - trailer;
}

void
ArchiveReader::need(std::size_t n)
{
    if (!ok())
        panic("ArchiveReader: read from invalid archive (", error_, ")");
    std::size_t limit = section_ends_.empty() ? end_ : section_ends_.back();
    if (pos_ + n > limit)
        panic("ArchiveReader: read of ", n, " bytes overruns ",
              section_ends_.empty() ? "archive" : "section", " end");
}

void
ArchiveReader::raw(void *p, std::size_t n)
{
    need(n);
    std::memcpy(p, bytes_.data() + pos_, n);
    pos_ += n;
}

void
ArchiveReader::expectSection(const std::string &tag)
{
    std::uint32_t tag_len = getU32();
    need(tag_len);
    std::string found(bytes_.data() + pos_, tag_len);
    pos_ += tag_len;
    if (found != tag)
        panic("ArchiveReader: expected section '", tag, "', found '",
              found, "'");
    std::uint64_t payload = getU64();
    std::size_t limit = section_ends_.empty() ? end_ : section_ends_.back();
    if (pos_ + payload > limit)
        panic("ArchiveReader: section '", tag, "' length ", payload,
              " overruns enclosing bounds");
    section_ends_.push_back(pos_ + payload);
}

void
ArchiveReader::endSection()
{
    if (section_ends_.empty())
        panic("ArchiveReader: endSection() without open section");
    if (pos_ != section_ends_.back())
        panic("ArchiveReader: section closed with ",
              section_ends_.back() - pos_, " unread byte(s)");
    section_ends_.pop_back();
}

bool
ArchiveReader::getBool()
{
    return getU8() != 0;
}

std::uint8_t
ArchiveReader::getU8()
{
    std::uint8_t v;
    raw(&v, sizeof(v));
    return v;
}

std::uint32_t
ArchiveReader::getU32()
{
    std::uint32_t v;
    raw(&v, sizeof(v));
    return v;
}

std::uint64_t
ArchiveReader::getU64()
{
    std::uint64_t v;
    raw(&v, sizeof(v));
    return v;
}

std::int64_t
ArchiveReader::getI64()
{
    std::int64_t v;
    raw(&v, sizeof(v));
    return v;
}

double
ArchiveReader::getDouble()
{
    double v;
    raw(&v, sizeof(v));
    return v;
}

std::string
ArchiveReader::getString()
{
    std::uint64_t len = getU64();
    need(len);
    std::string s(bytes_.data() + pos_, len);
    pos_ += len;
    return s;
}

// ---------------------------------------------------------------------
// Statistics tree serialization
// ---------------------------------------------------------------------

namespace
{

void
saveGroup(ArchiveWriter &aw, const stats::Group &g)
{
    aw.putU64(g.statList().size());
    for (const stats::Stat *s : g.statList()) {
        aw.putString(s->name());
        if (auto *sc = dynamic_cast<const stats::Scalar *>(s)) {
            aw.putU8(kind_scalar);
            aw.putDouble(sc->value());
        } else if (auto *av = dynamic_cast<const stats::Average *>(s)) {
            aw.putU8(kind_average);
            aw.putDouble(av->sum());
            aw.putU64(av->count());
        } else if (auto *d =
                       dynamic_cast<const stats::Distribution *>(s)) {
            aw.putU8(kind_distribution);
            aw.putU64(d->count());
            aw.putDouble(d->sum());
            aw.putDouble(d->sumSq());
            aw.putDouble(d->rawMin());
            aw.putDouble(d->rawMax());
        } else {
            // Derived values recompute from restored state.
            aw.putU8(kind_value);
        }
    }
    aw.putU64(g.children().size());
    for (const stats::Group *c : g.children())
        saveGroup(aw, *c);
}

void
restoreGroup(ArchiveReader &ar, stats::Group &g)
{
    std::uint64_t nstats = ar.getU64();
    if (nstats != g.statList().size())
        panic("stats restore: group '", g.path(), "' has ",
              g.statList().size(), " stats, archive has ", nstats);
    for (stats::Stat *s : g.statList()) {
        std::string name = ar.getString();
        if (name != s->name())
            panic("stats restore: expected stat '", s->name(),
                  "' in group '", g.path(), "', archive has '", name, "'");
        std::uint8_t kind = ar.getU8();
        if (auto *sc = dynamic_cast<stats::Scalar *>(s)) {
            if (kind != kind_scalar)
                panic("stats restore: kind mismatch for '", name, "'");
            sc->set(ar.getDouble());
        } else if (auto *av = dynamic_cast<stats::Average *>(s)) {
            if (kind != kind_average)
                panic("stats restore: kind mismatch for '", name, "'");
            double sum = ar.getDouble();
            std::uint64_t count = ar.getU64();
            av->setState(sum, count);
        } else if (auto *d = dynamic_cast<stats::Distribution *>(s)) {
            if (kind != kind_distribution)
                panic("stats restore: kind mismatch for '", name, "'");
            std::uint64_t count = ar.getU64();
            double sum = ar.getDouble();
            double sum_sq = ar.getDouble();
            double mn = ar.getDouble();
            double mx = ar.getDouble();
            d->setState(count, sum, sum_sq, mn, mx);
        } else {
            if (kind != kind_value)
                panic("stats restore: kind mismatch for '", name, "'");
        }
    }
    std::uint64_t nchildren = ar.getU64();
    if (nchildren != g.children().size())
        panic("stats restore: group '", g.path(), "' has ",
              g.children().size(), " children, archive has ", nchildren);
    for (stats::Group *c : g.children())
        restoreGroup(ar, *c);
}

} // namespace

void
saveStats(ArchiveWriter &aw, const stats::Group &root)
{
    aw.beginSection("stats");
    saveGroup(aw, root);
    aw.endSection();
}

void
restoreStats(ArchiveReader &ar, stats::Group &root)
{
    ar.expectSection("stats");
    restoreGroup(ar, root);
    ar.endSection();
}

} // namespace rasim
