#include "mem/replacement.hh"

#include <bit>

#include "sim/logging.hh"

namespace rasim
{
namespace mem
{

ReplacementPolicy::ReplacementPolicy(int num_sets, int num_ways)
    : num_sets_(num_sets), num_ways_(num_ways)
{
    if (num_sets < 1 || num_ways < 1)
        panic("replacement policy needs positive geometry");
    if (num_ways > max_ways)
        panic("replacement policy supports at most ", max_ways,
              " ways, not ", num_ways);
}

LruPolicy::LruPolicy(int num_sets, int num_ways)
    : ReplacementPolicy(num_sets, num_ways),
      last_use_(static_cast<std::size_t>(num_sets) * num_ways, 0),
      seq_(static_cast<std::size_t>(num_sets) * num_ways, 0)
{
}

void
LruPolicy::touch(int set, int way, Tick now)
{
    auto idx = static_cast<std::size_t>(set) * num_ways_ + way;
    last_use_[idx] = now;
    seq_[idx] = next_seq_++;
}

int
LruPolicy::victim(int set, WayMask candidates)
{
    if (candidates == 0)
        panic("lru: no eviction candidates");
    int best = std::countr_zero(candidates);
    for (WayMask m = candidates; m; m &= m - 1) {
        int way = std::countr_zero(m);
        auto i = static_cast<std::size_t>(set) * num_ways_ + way;
        auto b = static_cast<std::size_t>(set) * num_ways_ + best;
        if (last_use_[i] < last_use_[b] ||
            (last_use_[i] == last_use_[b] && seq_[i] < seq_[b])) {
            best = way;
        }
    }
    return best;
}

void
LruPolicy::save(ArchiveWriter &aw) const
{
    aw.beginSection("lru");
    aw.putU64(next_seq_);
    aw.putU64(last_use_.size());
    for (Tick t : last_use_)
        aw.putU64(t);
    for (std::uint64_t s : seq_)
        aw.putU64(s);
    aw.endSection();
}

void
LruPolicy::restore(ArchiveReader &ar)
{
    ar.expectSection("lru");
    next_seq_ = ar.getU64();
    std::uint64_t n = ar.getU64();
    if (n != last_use_.size())
        panic("lru restore: geometry mismatch (", n, " vs ",
              last_use_.size(), " ways)");
    for (Tick &t : last_use_)
        t = ar.getU64();
    for (std::uint64_t &s : seq_)
        s = ar.getU64();
    ar.endSection();
}

FifoPolicy::FifoPolicy(int num_sets, int num_ways)
    : ReplacementPolicy(num_sets, num_ways),
      fill_seq_(static_cast<std::size_t>(num_sets) * num_ways, 0)
{
}

void
FifoPolicy::touch(int set, int way, Tick now)
{
    (void)now;
    auto idx = static_cast<std::size_t>(set) * num_ways_ + way;
    // A touch of a way never filled yet counts as the fill (the cache
    // calls touch() on fill as well); later touches don't move it.
    if (fill_seq_[idx] == 0)
        fill_seq_[idx] = next_seq_++;
}

void
FifoPolicy::filled(int set, int way)
{
    fill_seq_[static_cast<std::size_t>(set) * num_ways_ + way] =
        next_seq_++;
}

int
FifoPolicy::victim(int set, WayMask candidates)
{
    if (candidates == 0)
        panic("fifo: no eviction candidates");
    int best = std::countr_zero(candidates);
    for (WayMask m = candidates; m; m &= m - 1) {
        int way = std::countr_zero(m);
        auto i = static_cast<std::size_t>(set) * num_ways_ + way;
        auto b = static_cast<std::size_t>(set) * num_ways_ + best;
        if (fill_seq_[i] < fill_seq_[b])
            best = way;
    }
    // Reset so the way re-enters FIFO order on its next fill.
    fill_seq_[static_cast<std::size_t>(set) * num_ways_ + best] = 0;
    return best;
}

void
FifoPolicy::save(ArchiveWriter &aw) const
{
    aw.beginSection("fifo");
    aw.putU64(next_seq_);
    aw.putU64(fill_seq_.size());
    for (std::uint64_t s : fill_seq_)
        aw.putU64(s);
    aw.endSection();
}

void
FifoPolicy::restore(ArchiveReader &ar)
{
    ar.expectSection("fifo");
    next_seq_ = ar.getU64();
    std::uint64_t n = ar.getU64();
    if (n != fill_seq_.size())
        panic("fifo restore: geometry mismatch (", n, " vs ",
              fill_seq_.size(), " ways)");
    for (std::uint64_t &s : fill_seq_)
        s = ar.getU64();
    ar.endSection();
}

RandomPolicy::RandomPolicy(int num_sets, int num_ways, Rng rng)
    : ReplacementPolicy(num_sets, num_ways), rng_(rng)
{
}

void
RandomPolicy::touch(int set, int way, Tick now)
{
    (void)set;
    (void)way;
    (void)now;
}

int
RandomPolicy::victim(int set, WayMask candidates)
{
    (void)set;
    if (candidates == 0)
        panic("random: no eviction candidates");
    // The k-th candidate in ascending way order.
    std::uint32_t k = rng_.range(
        static_cast<std::uint32_t>(std::popcount(candidates)));
    for (; k > 0; --k)
        candidates &= candidates - 1;
    return std::countr_zero(candidates);
}

void
RandomPolicy::save(ArchiveWriter &aw) const
{
    aw.beginSection("random");
    const Rng::State rs = rng_.state();
    aw.putU64(rs.state);
    aw.putU64(rs.inc);
    aw.endSection();
}

void
RandomPolicy::restore(ArchiveReader &ar)
{
    ar.expectSection("random");
    Rng::State rs;
    rs.state = ar.getU64();
    rs.inc = ar.getU64();
    rng_.setState(rs);
    ar.endSection();
}

std::unique_ptr<ReplacementPolicy>
makeReplacement(const std::string &kind, int num_sets, int num_ways,
                Rng rng)
{
    if (kind == "lru")
        return std::make_unique<LruPolicy>(num_sets, num_ways);
    if (kind == "fifo")
        return std::make_unique<FifoPolicy>(num_sets, num_ways);
    if (kind == "random")
        return std::make_unique<RandomPolicy>(num_sets, num_ways, rng);
    fatal("unknown replacement policy '", kind,
          "' (want lru, fifo or random)");
}

} // namespace mem
} // namespace rasim
