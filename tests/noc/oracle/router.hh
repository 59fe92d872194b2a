/**
 * @file
 * Input-buffered virtual-channel wormhole router with credit-based
 * flow control.
 *
 * The per-cycle update is split into compute() (route computation, VC
 * allocation, switch allocation, traversal onto outgoing links — touches
 * only this router's state and the push-ends of its outgoing links) and
 * commit() (buffer writes from incoming links, credit returns — touches
 * only the pop-ends of its incoming links). This two-phase structure is
 * what makes the data-parallel engine race-free and deterministic.
 *
 * Timing model: a flit buffered at cycle A becomes eligible for switch
 * allocation at cycle A + pipeline_stages - 1 (the RC/VA/SA pipeline),
 * traverses the crossbar in the winning cycle, and spends link_latency
 * cycles on the wire. Per-hop latency is pipeline_stages - 1 +
 * link_latency plus contention.
 */

#ifndef RASIM_NOC_ORACLE_ROUTER_HH
#define RASIM_NOC_ORACLE_ROUTER_HH

#include <deque>
#include <vector>

#include "noc/oracle/flit.hh"
#include "noc/oracle/link.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "stats/stat.hh"
#include "stats/group.hh"

namespace rasim
{
namespace noc
{

class Topology;
class RoutingAlgorithm;

class Router : public stats::Group
{
  public:
    Router(stats::Group *parent, int id, const NocParams &params,
           const Topology &topo, const RoutingAlgorithm &routing);

    /** Attach the link whose flits arrive at input @p port. */
    void connectInput(int port, Link *link);

    /**
     * Attach the link leaving output @p port; @p downstream_depth is
     * the buffer depth per VC at the receiving side (initial credits).
     */
    void connectOutput(int port, Link *link, int downstream_depth);

    /** Phase 1: allocate and traverse (see file comment). */
    void compute(Cycle now);

    /** Phase 2: accept arrivals and credits. */
    void commit(Cycle now);

    int id() const { return id_; }

    /** Flits currently buffered in all input VCs (test/idle probe). */
    std::size_t bufferedFlits() const;

    /** Credits currently available at (output port, vc). */
    int creditsAt(int port, int vc) const;

    /** True when the output VC is allocated to an in-flight packet. */
    bool outVcBusy(int port, int vc) const;

    /** Register packets referenced by buffered flits. */
    void collectPackets(PacketTable &table) const;

    /** Checkpoint buffered flits, VC allocation and arbiter state. */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar, const PacketTable &table);

    /** Flits this router moved through its crossbar. */
    stats::Scalar flitsRouted;
    /** Flits written into input buffers (power model activity). */
    stats::Scalar bufferWrites;
    /** Flits sent over router-to-router links (power model). */
    stats::Scalar linkTraversals;

  private:
    enum class VcState : std::uint8_t { Idle, NeedVA, Active };

    struct InputVc
    {
        std::deque<Flit> fifo;
        VcState state = VcState::Idle;
        int out_port = -1;
        int out_vc = -1;
        std::uint8_t out_class = 0;
        std::uint8_t out_dim = 2;
    };

    struct InputPort
    {
        Link *in = nullptr;
        std::vector<InputVc> vcs;
        int sa_rr = 0; ///< round-robin pointer over VCs
    };

    struct OutVc
    {
        bool busy = false;
        int credits = 0;
    };

    struct OutputPort
    {
        Link *out = nullptr;
        std::vector<OutVc> vcs;
        std::vector<int> va_rr; ///< per (vnet,class) pool RR pointer
        int sa_rr = 0;          ///< round-robin pointer over input ports
    };

    void vcAllocation(Cycle now);
    void switchAllocation(Cycle now);

    /** Pick the output port among routing candidates (adaptive). */
    int selectOutputPort(const Flit &head, const std::vector<int> &cand,
                         int in_port) const;

    /** VC class the packet will use on the link leaving @p port. */
    std::uint8_t nextVcClass(const Flit &head, int out_port) const;

    /** Dimension (0 = X, 1 = Y, 2 = none) of a port. */
    static std::uint8_t dimOf(int port);

    /** Try to reserve a free output VC; returns -1 when none. */
    int allocateOutVc(int out_port, int vnet, int cls);

    int id_;
    const NocParams &params_;
    const Topology &topo_;
    const RoutingAlgorithm &routing_;
    std::vector<InputPort> inputs_;
    std::vector<OutputPort> outputs_;
    mutable std::vector<int> route_scratch_;
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_ORACLE_ROUTER_HH
