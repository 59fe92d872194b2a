/**
 * @file
 * Structure-of-arrays kernel for the buffered VC network.
 *
 * All per-router/per-port/per-VC state — VC state machines, arbiter
 * pointers, credits, in-flight flit slots and link shift registers —
 * lives in contiguous, index-addressed arrays of small records (one
 * per input VC, output VC and (node, port)) instead of pointer-linked
 * Router/Nic/Link objects. Flits are trivially copyable and name
 * their packet by an index into a fabric-owned slot table, so moving
 * one never touches a refcount. The RC/VA/SA/ST+LT stages
 * run as batched passes over active-node worklists built inside each
 * phase from per-node occupancy blocks (see active_scan.hh); nodes
 * with no buffered flits, queued packets or in-flight link traffic
 * are provably no-ops and are skipped entirely.
 *
 * Parallel shape: each phase is one engine.forRange() over the
 * cumulative-work units of WorkRanges (work_ranges.hh), so an engine
 * slot owns the same contiguous node block in compute and commit,
 * cycle after cycle, sized by the work its nodes did; the cut moves
 * at most once per advanceTo, in flushStats(). A range scans its own
 * occupancy sub-block into its own slice of a node-indexed scratch
 * array and visits the nodes it finds, so no worklist pass runs on
 * the calling thread between phases.
 *
 * Determinism: each pass executes the exact same per-node operation
 * sequence as the object oracle (same arbiter rotations, same
 * iteration order inside a node), and phases only touch
 * partition-local state plus the single-writer ends of links — so
 * results are bit-identical to the object oracle on deliveries,
 * stats and archive bytes, under serial and parallel engines alike.
 * Router/NIC stat increments collect in per-node deltas that
 * flushStats() folds in node order; the orchestrator calls it once
 * per advanceTo, and the integer-valued double adds are exact.
 *
 * Occupancy single-writer discipline (TSan-clean without atomics):
 * every occupancy word has exactly one writing node per phase —
 * compute-block words are written only by their own node; a
 * commit-block word for an input port is incremented only by the
 * one upstream sender (compute) and decremented only by the owner
 * (commit). A range therefore scans only words that no other range
 * writes in the same phase, and sees what a pre-phase scan would.
 */

#ifndef RASIM_NOC_KERNEL_SOA_CYCLE_HH
#define RASIM_NOC_KERNEL_SOA_CYCLE_HH

#include <memory>
#include <type_traits>
#include <vector>

#include "noc/kernel/active_scan.hh"
#include "noc/kernel/backend.hh"
#include "noc/kernel/work_ranges.hh"
#include "sim/cpuid.hh"
#include "sim/flat_map.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

class SoaCycleFabric : public CycleFabric
{
  public:
    SoaCycleFabric(stats::Group *parent, const NocParams &params,
                   const Topology &topo,
                   const RoutingAlgorithm &routing);

    std::string description() const override;

    void enqueue(std::size_t node, const PacketPtr &pkt,
                 Cycle now) override;
    void compute(StepEngine &engine, Cycle now,
                 const std::vector<char> &stalled) override;
    void commit(StepEngine &engine, Cycle now,
                const std::vector<char> &stalled) override;
    std::vector<PacketPtr> &completed(std::size_t node) override;
    const std::vector<int> &completedNodes() const override;
    void flushStats() override;
    RouterActivity routerActivity(std::size_t node) const override;

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    cpuid::SimdLevel simdLevel() const { return simd_; }

  private:
    /** Numeric values match Router::VcState for archive bytes. */
    static constexpr std::uint8_t vc_idle = 0;
    static constexpr std::uint8_t vc_need_va = 1;
    static constexpr std::uint8_t vc_active = 2;

    /** Compute-block word layout (8 u32 per node). */
    static constexpr int occ_buffered = 0;   ///< flits in input FIFOs
    static constexpr int occ_nic_queued = 1; ///< flits in NIC queues
    static constexpr int occ_inj_credits = 2; ///< credits on inj link
    static constexpr std::size_t compute_words = 8;
    /** Commit-block word layout (16 u32 per node): [0,P) in-port
     *  flits, [5,5+P) out-port credits, 10 ejection-link flits. */
    static constexpr int occ_out_credit_base = 5;
    static constexpr int occ_ej_flits = 10;
    static constexpr std::size_t commit_words = 16;

    static constexpr int max_ports = 16;

    /**
     * A flit as this kernel stores it: the packet is an index into
     * the slot table (slot_pkt_, slot_owner_) instead of a
     * refcounted handle, so moving a flit is a plain copy.
     */
    struct SoaFlit
    {
        Cycle ready_cycle = 0;
        std::uint32_t slot = 0;
        std::uint16_t seq = 0;
        FlitType type = FlitType::HeadTail;
        std::uint8_t vnet = 0;
        std::int8_t vc = -1;
        std::uint8_t vc_class = 0;
        std::uint8_t last_dim = 2;

        bool isHead() const
        {
            return type == FlitType::Head ||
                   type == FlitType::HeadTail;
        }
        bool isTail() const
        {
            return type == FlitType::Tail ||
                   type == FlitType::HeadTail;
        }
    };
    static_assert(std::is_trivially_copyable_v<SoaFlit>);
    static_assert(sizeof(SoaFlit) <= 24);

    /** Input VC: state machine, allocated route and FIFO ring. */
    struct InVc
    {
        std::uint8_t state = vc_idle;
        std::uint8_t out_class = 0;
        std::uint8_t out_dim = 2;
        std::int16_t out_port = -1;
        std::int16_t out_vc = -1;
        std::uint16_t fifo_head = 0;
        std::uint16_t fifo_size = 0;
    };
    static_assert(sizeof(InVc) == 12);

    /** Output VC: held by a packet, credits for the downstream FIFO. */
    struct OutVc
    {
        std::int32_t credits = 0;
        std::uint8_t busy = 0;
    };

    /**
     * One (node, port): VC bitmasks (bit v = VC v; nonempty: the FIFO
     * holds a flit, needva: the VC state is NeedVA; VA walks needva,
     * SA walks nonempty & ~needva), the input and output SA pointers,
     * and the link index on each side (-1 when unconnected). The masks
     * fit because NocParams::validate() caps VCs per port at 32, and
     * the u16 FIFO fields because it caps buffer_depth at 65535.
     */
    struct Port
    {
        std::uint32_t nonempty = 0;
        std::uint32_t needva = 0;
        std::int32_t ip_sa_rr = 0;
        std::int32_t op_sa_rr = 0;
        std::int32_t in_link = -1;
        std::int32_t out_link = -1;
    };
    static_assert(sizeof(Port) == 24);

    struct TimedFlit
    {
        Cycle cycle = 0;
        SoaFlit flit;
    };

    struct TimedCredit
    {
        Cycle cycle = 0;
        std::int16_t vc = 0;
    };

    /**
     * A link's two pipelines as fixed-capacity rings. Capacity is the
     * provable bound totalVcs * buffer_depth + latency + 2 (credit
     * conservation caps in-flight flits and outstanding credits at
     * the downstream buffer pool size). A ring that drains restarts
     * at slot 0. The occ pointers address the occupancy word of each
     * pipeline's consumer; push/pop helpers keep them in sync.
     */
    struct SoaLink
    {
        int latency = 1;
        std::uint32_t fhead = 0, fsize = 0;
        std::uint32_t chead = 0, csize = 0;
        std::uint32_t cap = 0; ///< power of two; shared by both rings
        std::vector<TimedFlit> flits;
        std::vector<TimedCredit> credits;
        std::uint32_t *flit_occ = nullptr;
        std::uint32_t *cred_occ = nullptr;
    };

    /** Growable power-of-two ring for NIC injection queues: amortised
     *  allocation only up to the high-water mark, then steady-state
     *  allocation-free. Restarts at slot 0 when it drains. */
    struct FlitRing
    {
        std::vector<SoaFlit> buf;
        std::uint32_t head = 0, size = 0;

        SoaFlit &front() { return buf[head]; }
        const SoaFlit &at(std::uint32_t k) const
        {
            return buf[(head + k) & (buf.size() - 1)];
        }

        void
        push(const SoaFlit &f)
        {
            if (size == buf.size())
                grow();
            buf[(head + size) & (buf.size() - 1)] = f;
            ++size;
        }

        SoaFlit
        pop()
        {
            SoaFlit f = buf[head];
            head = --size == 0 ? 0 : (head + 1) & (buf.size() - 1);
            return f;
        }

        void grow();
    };

    struct RouterStats : stats::Group
    {
        RouterStats(stats::Group *parent, int id);
        stats::Scalar flitsRouted;
        stats::Scalar bufferWrites;
        stats::Scalar linkTraversals;
    };

    struct NicStats : stats::Group
    {
        NicStats(stats::Group *parent, int node);
        stats::Scalar flitsSent;
        stats::Scalar flitsReceived;
    };

    /** One node's stat increments since the last flushStats(). */
    struct StatDeltas
    {
        std::uint64_t flits_routed = 0;
        std::uint64_t buffer_writes = 0;
        std::uint64_t link_traversals = 0;
        std::uint64_t flits_sent = 0;
        std::uint64_t flits_received = 0;
    };

    // Index helpers over the flat arrays.
    std::size_t pi(int node, int port) const
    {
        return static_cast<std::size_t>(node) * P_ + port;
    }
    std::size_t vi(int node, int port, int vc) const
    {
        return pi(node, port) * V_ + vc;
    }
    /** The flit at the head of input VC @p x. */
    const SoaFlit &fifoFront(std::size_t x) const
    {
        return fifo_[x * D_ + in_vc_[x].fifo_head];
    }

    // Link pipelines (occupancy maintained inside).
    void pushFlit(SoaLink &l, Cycle now, const SoaFlit &f);
    bool flitReady(const SoaLink &l, Cycle now) const
    {
        return l.fsize > 0 &&
               l.flits[l.fhead].cycle <= now;
    }
    SoaFlit popFlit(SoaLink &l);
    void pushCredit(SoaLink &l, Cycle now, int vc);
    bool creditReady(const SoaLink &l, Cycle now) const
    {
        return l.csize > 0 && l.credits[l.chead].cycle <= now;
    }
    int popCredit(SoaLink &l);

    // Per-node stages (transliterations of Nic/Router per-cycle code).
    void nicCompute(int i, Cycle now);
    void routerComputeVa(int i);
    void routerComputeSa(int i, Cycle now);
    /** SA input stage: lowest VC of @p mask (in-port @p pp) whose
     *  head flit is ready and has a downstream credit, or -1. */
    int firstReadyVc(int i, std::size_t pp, std::uint32_t mask,
                     Cycle now) const;
    void routerCommit(int i, Cycle now);
    void nicCommit(int i, Cycle now);

    int selectOutputPort(int i, const SoaFlit &head,
                         const std::vector<int> &cand,
                         int in_port) const;
    std::uint8_t nextVcClass(int i, const SoaFlit &head,
                             int out_port) const;
    static std::uint8_t dimOf(int port);
    int allocateOutVc(int i, int out_port, int vnet, int cls);

    /** Checkpoint a flit: its fields, then the packet id and a
     *  has-packet flag (always true here). The object oracle writes
     *  the same bytes. */
    void saveSoaFlit(ArchiveWriter &aw, const SoaFlit &f) const;
    static SoaFlit
    restoreSoaFlit(ArchiveReader &ar,
                   const FlatMap<PacketId, std::uint32_t> &slot_of);
    void rebuildOccupancy();
    /** Scan nodes [lo, hi) of @p occ into worklist_[lo, ...); returns
     *  the count (entries are relative to lo). */
    std::size_t scanRange(const std::vector<std::uint32_t> &occ,
                          std::size_t words, std::size_t lo,
                          std::size_t hi);

    const NocParams &params_;
    const Topology &topo_;
    const RoutingAlgorithm &routing_;
    int n_ = 0, P_ = 0, V_ = 0, D_ = 0, C_ = 0;
    cpuid::SimdLevel simd_ = cpuid::SimdLevel::Scalar;
    ActiveScanFn scan_ = nullptr;

    std::vector<InVc> in_vc_;   ///< [n*P*V]
    std::vector<OutVc> out_vc_; ///< [n*P*V]
    std::vector<Port> ports_;   ///< [n*P]
    /** Input FIFOs: flat rings of depth D [n*P*V*D]. */
    std::vector<SoaFlit> fifo_;
    /** Per-pool VA pointers [n*P*C]. */
    std::vector<std::int32_t> op_va_rr_;
    std::vector<SoaLink> links_;

    // Packet slot table: one entry per packet inside the fabric,
    // indexed by SoaFlit::slot. enqueue() takes a slot (sequential);
    // tail ejection moves the owner into completed_, parks the slot
    // on freed_[node] and raises done_[node]; commit() returns parked
    // slots to free_slots_ sequentially in node order. A free slot's
    // raw pointer is null.
    std::vector<PacketPtr> slot_owner_;
    std::vector<Packet *> slot_pkt_;
    std::vector<std::uint32_t> free_slots_;
    std::vector<std::vector<std::uint32_t>> freed_; ///< [n]
    /** 1 where freed_ is non-empty [n, padded to a multiple of 8]. */
    std::vector<char> done_;

    // NIC state.
    std::vector<FlitRing> nicq_;              ///< [n*num_vnets]
    std::vector<std::int32_t> nicq_cur_vc_;   ///< [n*num_vnets]
    std::vector<std::uint8_t> inj_busy_;      ///< [n*V]
    std::vector<std::int32_t> inj_credits_;   ///< [n*V]
    std::vector<std::int32_t> nic_va_rr_;     ///< [n*num_vnets]
    std::vector<std::int32_t> nic_rr_vnet_;   ///< [n]
    std::vector<std::uint64_t> nic_queued_;   ///< [n]
    std::vector<FlatMap<PacketId, std::uint32_t>> rx_; ///< [n]
    std::vector<std::vector<PacketPtr>> completed_;    ///< [n]
    /** Ascending nodes whose completed_ is non-empty this cycle. */
    std::vector<int> completed_nodes_;

    // Occupancy blocks, the node ranges the phases split them by, and
    // the worklist scratch: range [lo, hi) writes its worklist (node
    // indices relative to lo) into worklist_[lo, hi).
    std::vector<std::uint32_t> compute_occ_; ///< [n*compute_words]
    std::vector<std::uint32_t> commit_occ_;  ///< [n*commit_words]
    WorkRanges ranges_;
    std::vector<int> worklist_; ///< [n]

    // Phase arguments parked in members so the forRange lambda only
    // captures `this` (8 bytes): a fatter capture spills std::function
    // past its inline buffer and costs a heap allocation per phase.
    // Set before the engine call, read-only inside the phase.
    Cycle phase_now_ = 0;
    int phase_va_start_ = 0; ///< phase_now_ % P_: VA's first in-port
    const std::vector<char> *phase_stalled_ = nullptr;

    // Per-node route scratch (reserved; no steady-state allocation).
    std::vector<std::vector<int>> route_scratch_;

    /** Stat increments [n], folded into the Scalars by flushStats(). */
    std::vector<StatDeltas> deltas_;

    std::vector<std::unique_ptr<RouterStats>> router_stats_;
    std::vector<std::unique_ptr<NicStats>> nic_stats_;
};

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_SOA_CYCLE_HH
