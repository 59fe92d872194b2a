/**
 * @file
 * The reciprocal feedback target: a small per-(vnet, hop-distance)
 * latency estimator, seeded from the zero-load model and re-tuned by
 * EWMA from latencies the detailed network actually observed.
 */

#ifndef RASIM_ABSTRACTNET_LATENCY_TABLE_HH
#define RASIM_ABSTRACTNET_LATENCY_TABLE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "noc/params.hh"
#include "sim/config.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace rasim
{
namespace abstractnet
{

/**
 * Latency estimates indexed by (virtual network, hop distance). The
 * stored quantity is the latency of a single-flit packet; wormhole
 * serialisation (flits - 1) is factored out on observe() and added
 * back on estimate(), so packets of different sizes share statistics.
 *
 * Intentionally copyable: the co-simulation bridge checkpoints the
 * table at healthy quantum boundaries (a plain copy) and restores the
 * last-good copy when a health guard quarantines the detailed backend.
 */
class LatencyTable
{
  public:
    /**
     * Feedback granularity. Distance aggregates all flows of equal
     * hop count; Pair additionally keeps one estimator per (source,
     * destination) flow — strictly finer, catching per-flow
     * contention (hotspots) at 3*N^2 entries, and falling back to the
     * distance entry (then the zero-load seed) for unseen flows.
     */
    enum class Granularity
    {
        Distance,
        Pair,
    };

    /**
     * @param params Network parameters (zero-load seed and max hops).
     * @param max_hops Largest representable distance; longer paths
     *        clamp to this entry.
     * @param alpha EWMA weight of a new observation in (0, 1].
     * @param granularity Feedback resolution (see Granularity).
     * @param num_nodes Endpoint count; required for Pair granularity.
     */
    LatencyTable(const noc::NocParams &params, int max_hops,
                 double alpha = 0.05,
                 Granularity granularity = Granularity::Distance,
                 int num_nodes = 0);

    /**
     * Fold one observed delivery into the estimator. src/dst refine
     * the per-pair entry when Pair granularity is active (ignored
     * otherwise).
     */
    void observe(int vnet, int hops, std::uint32_t flits, Tick latency,
                 NodeId src = invalid_node, NodeId dst = invalid_node);

    /** Current latency estimate (>= zero-load, in cycles). */
    double estimate(int vnet, int hops, std::uint32_t flits,
                    NodeId src = invalid_node,
                    NodeId dst = invalid_node) const;

    Granularity granularity() const { return granularity_; }

    /** Observations folded in so far. */
    std::uint64_t observations() const { return observations_; }

    /** Discard all observations, reverting to the zero-load seed. */
    void reset();

    /**
     * Divergence probe: the largest ratio of a tuned (distance)
     * estimate to its zero-load seed, or 1.0 with no observations. A
     * healthy table tracks contention, so the ratio stays moderate; a
     * poisoned feedback stream drives it far above any physical
     * queueing bound — the health monitor trips when it exceeds the
     * configured factor.
     */
    double maxSeedRatio() const;

    /**
     * Persist the tuned estimates as CSV ("vnet,hops,ewma,samples");
     * lets a calibration run feed later TunedAbstract experiments
     * without re-simulating (the paper's model-reuse workflow).
     */
    void save(std::ostream &os) const;

    /** Load estimates saved by save(); fatal() on malformed rows or a
     *  geometry mismatch. */
    void load(std::istream &is);

    /**
     * Exact binary checkpoint of the tuned state (unlike the CSV
     * export, which rounds). Bit-identical resume depends on it.
     */
    void saveBinary(ArchiveWriter &aw) const;
    void restoreBinary(ArchiveReader &ar);

    /** Exact state comparison (differential resume tests). */
    bool identicalTo(const LatencyTable &other) const;

    double alpha() const { return alpha_; }
    int maxHops() const { return max_hops_; }

  private:
    struct Entry
    {
        double ewma = 0.0;
        std::uint64_t samples = 0;
    };

    std::size_t index(int vnet, int hops) const;
    std::size_t pairIndex(int vnet, NodeId src, NodeId dst) const;

    noc::NocParams params_;
    int max_hops_;
    double alpha_;
    Granularity granularity_;
    int num_nodes_;
    std::uint64_t observations_ = 0;
    std::vector<Entry> entries_;
    std::vector<Entry> pair_entries_;
};

/** Spellings of LatencyTable::Granularity. */
inline constexpr config::Name<LatencyTable::Granularity>
    granularity_names[] = {
        {"distance", LatencyTable::Granularity::Distance},
        {"pair", LatencyTable::Granularity::Pair},
};

/**
 * Knobs of the abstract network model and of the reciprocal latency
 * table every co-simulation side builds.
 */
struct AbstractParams
{
    /** EWMA weight of a new observation. */
    double ewma_alpha = 0.05;
    /** Feedback resolution. */
    LatencyTable::Granularity granularity =
        LatencyTable::Granularity::Distance;
    /** Load-accounting window of the Static contention term, in
     *  cycles. */
    Tick window = 256;
    /** Ceiling of the Static contention term, in cycles. */
    double contention_cap = 64.0;

    void
    keys(config::Binder &v)
    {
        v("abstract.ewma_alpha", ewma_alpha);
        v("abstract.granularity", granularity, granularity_names);
        v("abstract.window", window);
        v("abstract.contention_cap", contention_cap);
    }
};

} // namespace abstractnet
} // namespace rasim

#endif // RASIM_ABSTRACTNET_LATENCY_TABLE_HH
