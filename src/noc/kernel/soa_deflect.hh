/**
 * @file
 * Structure-of-arrays kernel for the bufferless deflection network.
 *
 * Arrival sets, output staging and injection queues live in flat,
 * contiguous, per-node-strided arrays; the route and gather phases run
 * as batched passes over active-node worklists rebuilt each cycle from
 * per-node occupancy blocks (see active_scan.hh). A node with no
 * arriving flits and an empty injection queue is a provable no-op in
 * the route phase, and a node with no staged upstream flits is a no-op
 * in the gather phase, so idle regions of the mesh cost nothing.
 *
 * The per-node route/gather logic is an exact transliteration of the
 * object oracle (same ejection choice, same oldest-first ordering,
 * same port preference and deflection fallback), so deliveries, stats
 * and archive bytes are bit-identical across kernels, serial and
 * parallel alike.
 */

#ifndef RASIM_NOC_KERNEL_SOA_DEFLECT_HH
#define RASIM_NOC_KERNEL_SOA_DEFLECT_HH

#include <vector>

#include "noc/kernel/active_scan.hh"
#include "noc/kernel/backend.hh"
#include "sim/cpuid.hh"
#include "sim/flat_map.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

class SoaDeflectFabric : public DeflectFabric
{
  public:
    SoaDeflectFabric(const NocParams &params, const Topology &topo);

    std::string description() const override;

    void enqueue(std::size_t node, const PacketPtr &pkt,
                 std::uint32_t nflits) override;
    void route(StepEngine &engine, Cycle now) override;
    void gather(StepEngine &engine) override;
    const std::vector<int> &scratchNodes() const override;
    NodeScratch &scratch(std::size_t node) override;

    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    cpuid::SimdLevel simdLevel() const { return simd_; }

  private:
    /** Route-block word layout (8 u32 per node): both words are
     *  written only by the owning node (gather refills word 0 for the
     *  next cycle; enqueue runs sequentially between cycles). */
    static constexpr int occ_arriving = 0;
    static constexpr int occ_inject = 1;
    /** Gather-block word layout (8 u32 per node): one word per input
     *  port, set by the unique upstream stager during the route phase
     *  and cleared by the owner in the gather phase. */
    static constexpr std::size_t occ_words = 8;

    /** Growable power-of-two ring for the injection queues. */
    struct DRing
    {
        std::vector<DFlit> buf;
        std::uint32_t head = 0, size = 0;

        const DFlit &at(std::uint32_t k) const
        {
            return buf[(head + k) & (buf.size() - 1)];
        }

        void
        push(DFlit f)
        {
            if (size == buf.size())
                grow();
            buf[(head + size) & (buf.size() - 1)] = std::move(f);
            ++size;
        }

        DFlit
        pop()
        {
            DFlit f = std::move(buf[head]);
            head = (head + 1) & (buf.size() - 1);
            --size;
            return f;
        }

        void grow();
    };

    void routeNode(int i, Cycle now);
    void gatherNode(int j);

    const NocParams &params_;
    const Topology &topo_;
    int n_ = 0, P_ = 0;
    /** Arrival-set stride: at most one flit per connected port. */
    int cap_ = 0;
    cpuid::SimdLevel simd_ = cpuid::SimdLevel::Scalar;
    ActiveScanFn scan_ = nullptr;

    /** Connected output ports per node: conn_[conn_off_[i] ..
     *  conn_off_[i+1]) ascending (the free-port pool each cycle). */
    std::vector<std::int32_t> conn_off_;
    std::vector<std::int8_t> conn_;
    /** Upstream staging slots feeding node j, in the fixed gather
     *  order: src_slot_[src_off_[j] .. src_off_[j+1]) indexes out_. */
    std::vector<std::int32_t> src_off_;
    std::vector<std::int32_t> src_slot_;
    /** gather_occ_ word set when out_[i*P+p] is staged (-1 when port
     *  p of node i has no downstream). */
    std::vector<std::int32_t> dest_word_;

    /** Arrival sets [n*cap_] with counts [n]. */
    std::vector<DFlit> arr_;
    std::vector<std::uint32_t> arr_cnt_;
    /** Output staging [n*P]; a null pkt marks an empty slot. */
    std::vector<DFlit> out_;
    std::vector<DRing> injq_;                          ///< [n]
    std::vector<FlatMap<PacketId, std::uint32_t>> rx_; ///< [n]
    std::vector<NodeScratch> scratch_;                 ///< [n]

    std::vector<std::uint32_t> route_occ_;  ///< [n*occ_words]
    std::vector<std::uint32_t> gather_occ_; ///< [n*occ_words]
    std::vector<int> route_list_;
    std::vector<int> gather_list_;

    // Phase arguments parked in members so the forRange lambda only
    // captures `this` (8 bytes): a fatter capture spills std::function
    // past its inline buffer and costs a heap allocation per phase.
    // Set before the engine call, read-only inside the phase.
    Cycle phase_now_ = 0;
};

} // namespace kernel
} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_KERNEL_SOA_DEFLECT_HH
