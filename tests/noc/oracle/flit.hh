/**
 * @file
 * The object oracle's flit: one flow-control unit holding a
 * refcounted handle to its packet, and its checkpoint format. The soa
 * kernel stores the same fields with the packet as a slot index and
 * writes the same bytes; the kernel-equivalence archive tests pin
 * that.
 */

#ifndef RASIM_NOC_ORACLE_FLIT_HH
#define RASIM_NOC_ORACLE_FLIT_HH

#include <cstdint>

#include "noc/packet.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace rasim
{
namespace noc
{

/**
 * One flow-control unit of a packet. Single-flit packets are marked
 * HeadTail.
 */
struct Flit
{
    using Type = FlitType;

    Type type = Type::HeadTail;
    /** Virtual network (from the packet's message class). */
    std::uint8_t vnet = 0;
    /** VC within the vnet on the current link; -1 before allocation. */
    std::int8_t vc = -1;
    /**
     * Dateline VC-class bit for torus deadlock avoidance: flits that
     * crossed the wrap-around link in the current dimension must use
     * the upper half of the VC pool.
     */
    std::uint8_t vc_class = 0;
    /**
     * Dimension of the last traversed link (0 = X, 1 = Y, 2 = none);
     * the dateline class resets when the packet changes dimension.
     */
    std::uint8_t last_dim = 2;
    /** Flit index within the packet (0 = head). */
    std::uint16_t seq = 0;
    /** First cycle the flit may compete for switch allocation. */
    Cycle ready_cycle = 0;
    /** Owning packet (destination, bookkeeping, timing). */
    PacketPtr pkt;

    bool isHead() const
    {
        return type == Type::Head || type == Type::HeadTail;
    }

    bool isTail() const
    {
        return type == Type::Tail || type == Type::HeadTail;
    }
};

/** Checkpoint a flit; the owning packet is stored as an id. */
void saveFlit(ArchiveWriter &aw, const Flit &flit);
Flit restoreFlit(ArchiveReader &ar, const PacketTable &table);

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_ORACLE_FLIT_HH
