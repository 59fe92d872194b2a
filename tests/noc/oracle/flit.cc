#include "noc/oracle/flit.hh"

namespace rasim
{
namespace noc
{

void
saveFlit(ArchiveWriter &aw, const Flit &flit)
{
    aw.putU8(static_cast<std::uint8_t>(flit.type));
    aw.putU8(flit.vnet);
    aw.putU8(static_cast<std::uint8_t>(flit.vc));
    aw.putU8(flit.vc_class);
    aw.putU8(flit.last_dim);
    aw.putU32(flit.seq);
    aw.putU64(flit.ready_cycle);
    aw.putU64(flit.pkt ? flit.pkt->id : 0);
    aw.putBool(static_cast<bool>(flit.pkt));
}

Flit
restoreFlit(ArchiveReader &ar, const PacketTable &table)
{
    Flit flit;
    flit.type = static_cast<Flit::Type>(ar.getU8());
    flit.vnet = ar.getU8();
    flit.vc = static_cast<std::int8_t>(ar.getU8());
    flit.vc_class = ar.getU8();
    flit.last_dim = ar.getU8();
    flit.seq = static_cast<std::uint16_t>(ar.getU32());
    flit.ready_cycle = ar.getU64();
    PacketId id = ar.getU64();
    if (ar.getBool())
        flit.pkt = table.at(id);
    return flit;
}

} // namespace noc
} // namespace rasim
