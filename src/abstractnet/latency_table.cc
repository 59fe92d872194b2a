#include "abstractnet/latency_table.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "abstractnet/latency_model.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace rasim
{
namespace abstractnet
{

LatencyTable::LatencyTable(const noc::NocParams &params, int max_hops,
                           double alpha, Granularity granularity,
                           int num_nodes)
    : params_(params), max_hops_(max_hops), alpha_(alpha),
      granularity_(granularity), num_nodes_(num_nodes)
{
    if (max_hops_ < 0)
        panic("latency table needs a non-negative distance range");
    if (alpha_ <= 0.0 || alpha_ > 1.0)
        fatal("latency table EWMA weight must be in (0, 1], got ",
              alpha_);
    entries_.resize(static_cast<std::size_t>(noc::num_vnets) *
                    (max_hops_ + 1));
    if (granularity_ == Granularity::Pair) {
        if (num_nodes_ < 1)
            fatal("pair-granularity latency table needs the node count");
        pair_entries_.resize(static_cast<std::size_t>(noc::num_vnets) *
                             num_nodes_ * num_nodes_);
    }
}

AbstractParams
AbstractParams::fromConfig(const Config &cfg)
{
    AbstractParams p;
    p.ewma_alpha = cfg.getDouble("abstract.ewma_alpha", p.ewma_alpha);
    std::string name = cfg.getString("abstract.granularity", "distance");
    if (name == "pair")
        p.granularity = LatencyTable::Granularity::Pair;
    else if (name != "distance")
        fatal("abstract.granularity must be distance or pair, not '",
              name, "'");
    p.window = cfg.getUInt("abstract.window", p.window);
    p.contention_cap =
        cfg.getDouble("abstract.contention_cap", p.contention_cap);
    return p;
}

std::size_t
LatencyTable::pairIndex(int vnet, NodeId src, NodeId dst) const
{
    return (static_cast<std::size_t>(vnet) * num_nodes_ + src) *
               num_nodes_ +
           dst;
}

std::size_t
LatencyTable::index(int vnet, int hops) const
{
    int h = std::clamp(hops, 0, max_hops_);
    return static_cast<std::size_t>(vnet) * (max_hops_ + 1) + h;
}

void
LatencyTable::observe(int vnet, int hops, std::uint32_t flits,
                      Tick latency, NodeId src, NodeId dst)
{
    // Normalise to a single-flit packet so all sizes share the entry.
    double serial = flits > 0 ? flits - 1 : 0;
    double single = static_cast<double>(latency) - serial;
    auto fold = [this, single](Entry &e) {
        if (e.samples == 0)
            e.ewma = single;
        else
            e.ewma = alpha_ * single + (1.0 - alpha_) * e.ewma;
        ++e.samples;
    };
    fold(entries_[index(vnet, hops)]);
    if (granularity_ == Granularity::Pair && src != invalid_node &&
        dst != invalid_node &&
        src < static_cast<NodeId>(num_nodes_) &&
        dst < static_cast<NodeId>(num_nodes_)) {
        fold(pair_entries_[pairIndex(vnet, src, dst)]);
    }
    ++observations_;
}

double
LatencyTable::estimate(int vnet, int hops, std::uint32_t flits,
                       NodeId src, NodeId dst) const
{
    double serial = flits > 0 ? flits - 1 : 0;
    if (granularity_ == Granularity::Pair && src != invalid_node &&
        dst != invalid_node &&
        src < static_cast<NodeId>(num_nodes_) &&
        dst < static_cast<NodeId>(num_nodes_)) {
        const Entry &p = pair_entries_[pairIndex(vnet, src, dst)];
        if (p.samples > 0)
            return p.ewma + serial;
    }
    const Entry &e = entries_[index(vnet, hops)];
    if (e.samples > 0)
        return e.ewma + serial;
    return static_cast<double>(zeroLoadLatency(params_, hops, 1)) +
           serial;
}

void
LatencyTable::reset()
{
    for (Entry &e : entries_)
        e = Entry{};
    for (Entry &e : pair_entries_)
        e = Entry{};
    observations_ = 0;
}

double
LatencyTable::maxSeedRatio() const
{
    double worst = 1.0;
    for (int v = 0; v < noc::num_vnets; ++v) {
        for (int h = 0; h <= max_hops_; ++h) {
            const Entry &e = entries_[index(v, h)];
            if (e.samples == 0)
                continue;
            double seed = std::max(
                1.0,
                static_cast<double>(zeroLoadLatency(params_, h, 1)));
            worst = std::max(worst, e.ewma / seed);
        }
    }
    return worst;
}

void
LatencyTable::save(std::ostream &os) const
{
    os << "vnet,hops,ewma,samples\n";
    for (int v = 0; v < noc::num_vnets; ++v) {
        for (int h = 0; h <= max_hops_; ++h) {
            const Entry &e = entries_[index(v, h)];
            if (e.samples == 0)
                continue;
            os << v << "," << h << "," << e.ewma << "," << e.samples
               << "\n";
        }
    }
}

void
LatencyTable::load(std::istream &is)
{
    reset();
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line.rfind("vnet,", 0) == 0)
            continue;
        std::istringstream row(line);
        int v, h;
        double ewma;
        std::uint64_t samples;
        char c1, c2, c3;
        if (!(row >> v >> c1 >> h >> c2 >> ewma >> c3 >> samples) ||
            c1 != ',' || c2 != ',' || c3 != ',' || v < 0 ||
            v >= noc::num_vnets || h < 0 || samples == 0) {
            fatal("malformed latency table row ", lineno, ": '", line,
                  "'");
        }
        if (h > max_hops_)
            fatal("latency table row ", lineno, " exceeds max hops ",
                  max_hops_, " (geometry mismatch)");
        Entry &e = entries_[index(v, h)];
        e.ewma = ewma;
        e.samples = samples;
        observations_ += samples;
    }
}

void
LatencyTable::saveBinary(ArchiveWriter &aw) const
{
    aw.beginSection("lat_table");
    aw.putU64(observations_);
    aw.putU64(entries_.size());
    for (const Entry &e : entries_) {
        aw.putDouble(e.ewma);
        aw.putU64(e.samples);
    }
    aw.putU64(pair_entries_.size());
    for (const Entry &e : pair_entries_) {
        aw.putDouble(e.ewma);
        aw.putU64(e.samples);
    }
    aw.endSection();
}

void
LatencyTable::restoreBinary(ArchiveReader &ar)
{
    ar.expectSection("lat_table");
    observations_ = ar.getU64();
    std::uint64_t n = ar.getU64();
    if (n != entries_.size())
        panic("latency table restore: ", n, " entries vs ",
              entries_.size(), " expected");
    for (Entry &e : entries_) {
        e.ewma = ar.getDouble();
        e.samples = ar.getU64();
    }
    std::uint64_t n_pair = ar.getU64();
    if (n_pair != pair_entries_.size())
        panic("latency table restore: ", n_pair, " pair entries vs ",
              pair_entries_.size(), " expected");
    for (Entry &e : pair_entries_) {
        e.ewma = ar.getDouble();
        e.samples = ar.getU64();
    }
    ar.endSection();
}

bool
LatencyTable::identicalTo(const LatencyTable &other) const
{
    if (observations_ != other.observations_ ||
        entries_.size() != other.entries_.size() ||
        pair_entries_.size() != other.pair_entries_.size())
        return false;
    for (std::size_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].ewma != other.entries_[i].ewma ||
            entries_[i].samples != other.entries_[i].samples)
            return false;
    for (std::size_t i = 0; i < pair_entries_.size(); ++i)
        if (pair_entries_[i].ewma != other.pair_entries_[i].ewma ||
            pair_entries_[i].samples != other.pair_entries_[i].samples)
            return false;
    return true;
}

} // namespace abstractnet
} // namespace rasim
