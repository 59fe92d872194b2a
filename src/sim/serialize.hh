/**
 * @file
 * Checkpoint serialization: a versioned binary archive format with
 * per-section tags and a CRC32 integrity trailer, plus the
 * Serializable interface implemented by every stateful component.
 *
 * Archive layout (little-endian):
 *
 *   [8]  magic "RASIMCKP"
 *   [4]  format version (u32)
 *   [..] body: nested tagged sections
 *   [4]  CRC32 of magic+version+body
 *
 * A section is [u32 tag length][tag bytes][u64 payload length][payload].
 * Sections nest; the reader bounds-checks every primitive read against
 * the innermost open section so a truncated or corrupted image fails
 * loudly instead of yielding garbage state.
 */

#ifndef RASIM_SIM_SERIALIZE_HH
#define RASIM_SIM_SERIALIZE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rasim
{

namespace stats
{
class Group;
} // namespace stats

/** CRC-32 (IEEE, reflected polynomial 0xEDB88320) of a byte buffer. */
std::uint32_t crc32(const void *data, std::size_t len);

/** CRC-64 (ECMA-182, reflected polynomial 0xC96C5795D7870F42) of a
 *  byte buffer. The replica-attestation digest of the remote backend:
 *  two replicas whose serialized state archives agree bit for bit
 *  produce the same digest, so a diverged (or corrupt) replica is
 *  caught by comparing eight bytes instead of shipping the image. */
std::uint64_t crc64(const void *data, std::size_t len);
std::uint64_t crc64(const std::string &bytes);

/**
 * Accumulates an archive in memory. Sections open with beginSection()
 * and close with endSection(); lengths are patched on close so callers
 * never pre-compute payload sizes. finish() seals the archive with the
 * header and CRC trailer.
 */
class ArchiveWriter
{
  public:
    static constexpr char magic[8] = {'R', 'A', 'S', 'I',
                                      'M', 'C', 'K', 'P'};
    /** v2: FullSystem's "meta" section carries the latency-table
     *  knobs; v3: it carries the state-shaping part of the whole
     *  configuration record (config::record) as key/value strings. */
    static constexpr std::uint32_t format_version = 3;

    void beginSection(const std::string &tag);
    void endSection();

    void putBool(bool v);
    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v);
    void putDouble(double v);
    void putString(const std::string &s);

    /** Seal and return the complete archive. No puts afterwards. */
    std::string finish();

    /** Seal and stream the complete archive to @p os. */
    void writeTo(std::ostream &os);

  private:
    void raw(const void *p, std::size_t n);

    std::string body_;
    std::vector<std::size_t> open_; ///< offsets of unpatched lengths
    bool finished_ = false;
};

/**
 * Bounds-checked reader over a complete archive image. Construction
 * validates magic, version and CRC without terminating: a corrupt
 * image leaves ok() false so callers can fall back to an older
 * checkpoint. Structural misuse during reading (wrong tag, read past
 * a section end) is a panic — that is a programming error, not bad
 * input, once the CRC has passed.
 */
class ArchiveReader
{
  public:
    explicit ArchiveReader(std::string bytes);

    /** False when magic/version/CRC validation failed. */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    std::uint32_t version() const { return version_; }

    void expectSection(const std::string &tag);
    void endSection();
    /** True when no section is open and the whole body was read. */
    bool atEnd() const { return section_ends_.empty() && pos_ == end_; }

    bool getBool();
    std::uint8_t getU8();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64();
    double getDouble();
    std::string getString();

  private:
    void need(std::size_t n);
    void raw(void *p, std::size_t n);

    std::string bytes_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    std::vector<std::size_t> section_ends_;
    std::string error_;
    std::uint32_t version_ = 0;
};

/**
 * A component whose dynamic state can round-trip through an archive.
 * restore() overwrites the state of a freshly constructed object built
 * from the same configuration; static geometry (table sizes, port
 * counts) is reconstructed, not archived.
 */
class Serializable
{
  public:
    virtual ~Serializable() = default;

    virtual void save(ArchiveWriter &aw) const = 0;
    virtual void restore(ArchiveReader &ar) = 0;
};

/**
 * Save / restore every statistic in the subtree rooted at @p root.
 * Both sides traverse the tree in registration order, which is the
 * deterministic construction order, so no name-based lookup is needed;
 * names are still recorded and verified to catch topology mismatches.
 * Derived stats::Value entries carry no state and are skipped.
 */
void saveStats(ArchiveWriter &aw, const stats::Group &root);
void restoreStats(ArchiveReader &ar, stats::Group &root);

} // namespace rasim

#endif // RASIM_SIM_SERIALIZE_HH
