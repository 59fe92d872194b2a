/**
 * @file
 * Network interface controller: packetisation, injection-side VC
 * allocation towards the local router port, ejection-side reassembly
 * and delivery.
 */

#ifndef RASIM_NOC_ORACLE_NIC_HH
#define RASIM_NOC_ORACLE_NIC_HH

#include <array>
#include <deque>
#include <vector>

#include "noc/oracle/flit.hh"
#include "noc/oracle/link.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "sim/flat_map.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace noc
{

class Nic : public stats::Group
{
  public:
    Nic(stats::Group *parent, NodeId node, const NocParams &params);

    /** Link carrying flits into the local router input port. */
    void connectInjection(Link *link, int router_buffer_depth);

    /** Link delivering ejected flits from the local router. */
    void connectEjection(Link *link);

    /**
     * Queue a packet for injection: packetise into flits on the
     * message-class virtual network. Called before the compute phase
     * of the cycle the packet becomes visible.
     */
    void enqueue(const PacketPtr &pkt, Cycle now);

    /** Phase 1: send at most one flit into the router. */
    void compute(Cycle now);

    /** Phase 2: accept ejected flits, reassemble, return credits. */
    void commit(Cycle now);

    /**
     * Packets fully received this cycle, in arrival order. Drained by
     * the network after the commit barrier (sequentially, so delivery
     * callbacks never run concurrently).
     */
    std::vector<PacketPtr> &completed() { return completed_; }

    /** True when nothing is queued, in reassembly, or half-sent. */
    bool idle() const;

    NodeId node() const { return node_; }

    /** Register packets referenced by queued flits. */
    void collectPackets(PacketTable &table) const;

    /** Checkpoint injection queues, VC state and reassembly counts.
     *  completed() must be empty (drained every cycle). */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar, const PacketTable &table);

    stats::Scalar flitsSent;
    stats::Scalar flitsReceived;

  private:
    struct OutVc
    {
        bool busy = false;
        int credits = 0;
    };

    struct InjectQueue
    {
        std::deque<Flit> fifo;
        int cur_vc = -1; ///< VC carrying the packet being streamed
    };

    NodeId node_;
    const NocParams &params_;
    Link *inj_ = nullptr;
    Link *ej_ = nullptr;
    std::array<InjectQueue, num_vnets> queues_;
    std::vector<OutVc> inj_vcs_;
    std::array<int, num_vnets> va_rr_{};
    int rr_vnet_ = 0;
    FlatMap<PacketId, std::uint32_t> rx_flits_;
    std::vector<PacketPtr> completed_;
    std::uint64_t queued_flits_ = 0;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_ORACLE_NIC_HH
