/**
 * @file
 * Cache replacement policies over abstract way indices.
 */

#ifndef RASIM_MEM_REPLACEMENT_HH
#define RASIM_MEM_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace rasim
{
namespace mem
{

/**
 * Eviction candidates of one set: bit w set means way w may be
 * victimised. Candidates are visited in ascending way order.
 */
using WayMask = std::uint64_t;

/** Ways a WayMask can name; caches are validated against it. */
constexpr int max_ways = 64;

/**
 * Replacement state for one cache: sets x ways. The cache reports
 * touches and asks for victims among the ways it marks evictable.
 */
class ReplacementPolicy
{
  public:
    ReplacementPolicy(int num_sets, int num_ways);
    virtual ~ReplacementPolicy() = default;

    /** Record a hit/fill touch of (set, way) at @p now. */
    virtual void touch(int set, int way, Tick now) = 0;

    /**
     * Pick the victim among the ways set in @p candidates in @p set.
     * @pre candidates != 0.
     */
    virtual int victim(int set, WayMask candidates) = 0;

    virtual std::string name() const = 0;

    /** Checkpoint the policy's dynamic state (recency, fill order,
     *  RNG position — whatever the concrete policy keeps). */
    virtual void save(ArchiveWriter &aw) const = 0;
    virtual void restore(ArchiveReader &ar) = 0;

  protected:
    int num_sets_;
    int num_ways_;
};

/** Evict the least recently touched way. */
class LruPolicy : public ReplacementPolicy
{
  public:
    LruPolicy(int num_sets, int num_ways);
    void touch(int set, int way, Tick now) override;
    int victim(int set, WayMask candidates) override;
    std::string name() const override { return "lru"; }
    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

  private:
    std::vector<Tick> last_use_;
    std::vector<std::uint64_t> seq_; ///< tie-break on equal ticks
    std::uint64_t next_seq_ = 1;
};

/** Evict the way filled longest ago (touches on hit ignored). */
class FifoPolicy : public ReplacementPolicy
{
  public:
    FifoPolicy(int num_sets, int num_ways);
    void touch(int set, int way, Tick now) override;
    int victim(int set, WayMask candidates) override;
    std::string name() const override { return "fifo"; }

    /** The cache calls this on fill (not on hit). */
    void filled(int set, int way);

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

  private:
    std::vector<std::uint64_t> fill_seq_;
    std::uint64_t next_seq_ = 1;
};

/** Evict a uniformly random candidate (deterministic seeded stream). */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(int num_sets, int num_ways, Rng rng);
    void touch(int set, int way, Tick now) override;
    int victim(int set, WayMask candidates) override;
    std::string name() const override { return "random"; }
    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

  private:
    Rng rng_;
};

/** Factory: "lru", "fifo" or "random". */
std::unique_ptr<ReplacementPolicy> makeReplacement(const std::string &kind,
                                                   int num_sets,
                                                   int num_ways, Rng rng);

} // namespace mem
} // namespace rasim

#endif // RASIM_MEM_REPLACEMENT_HH
