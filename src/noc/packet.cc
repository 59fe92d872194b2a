#include "noc/packet.hh"

#include <sstream>

namespace rasim
{
namespace noc
{

const char *
toString(MsgClass cls)
{
    switch (cls) {
      case MsgClass::Request:
        return "Request";
      case MsgClass::Forward:
        return "Forward";
      case MsgClass::Response:
        return "Response";
    }
    return "Unknown";
}

std::string
Packet::toString() const
{
    std::ostringstream os;
    os << "pkt" << id << " " << src << "->" << dst << " "
       << noc::toString(cls) << " " << size_bytes << "B";
    return os.str();
}

Pool<Packet> &
packetPool()
{
    // Immortal by design: handles held by function-local statics or
    // late-destroyed globals must never outlive the pool, so the pool
    // is simply never destroyed (still reachable, so leak-clean).
    static Pool<Packet> *pool = new Pool<Packet>("noc.packet");
    return *pool;
}

PacketPtr
makePacket(PacketId id, NodeId src, NodeId dst, MsgClass cls,
           std::uint32_t size_bytes, Tick inject_tick,
           std::uint64_t context)
{
    PacketPtr pkt = packetPool().allocate();
    pkt->id = id;
    pkt->src = src;
    pkt->dst = dst;
    pkt->cls = cls;
    pkt->size_bytes = size_bytes;
    pkt->inject_tick = inject_tick;
    pkt->context = context;
    return pkt;
}

PacketPtr
clonePacket(const Packet &src)
{
    return packetPool().allocate(src);
}

std::uint32_t
flitsForBytes(std::uint32_t size_bytes, std::uint32_t flit_bytes)
{
    if (size_bytes == 0)
        return 1;
    return (size_bytes + flit_bytes - 1) / flit_bytes;
}

void
collectPacket(PacketTable &table, const PacketPtr &pkt)
{
    if (pkt)
        table.emplace(pkt->id, pkt);
}

void
savePacketTable(ArchiveWriter &aw, const PacketTable &table)
{
    aw.beginSection("pkts");
    aw.putU64(table.size());
    for (const auto &[id, pkt] : table)
        savePacket(aw, *pkt);
    aw.endSection();
}

PacketTable
restorePacketTable(ArchiveReader &ar)
{
    ar.expectSection("pkts");
    PacketTable table;
    std::uint64_t n = ar.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        PacketPtr pkt = restorePacket(ar);
        table.emplace(pkt->id, pkt);
    }
    ar.endSection();
    return table;
}

} // namespace noc
} // namespace rasim
