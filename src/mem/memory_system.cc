#include "mem/memory_system.hh"

#include "mem/replacement.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace mem
{

void
MemParams::validate() const
{
    if (block_bytes < 1 || (block_bytes & (block_bytes - 1)) != 0)
        fatal("mem: block_bytes must be a power of two");
    if (l1_sets < 1 || l1_ways < 1)
        fatal("mem: L1 geometry must be positive");
    if (l1_ways > max_ways)
        fatal("mem: l1_ways must be at most ", max_ways);
    if (mshrs < 1)
        fatal("mem: need at least one MSHR");
    if (wb_buffer < 1)
        fatal("mem: need at least one write-back buffer entry");
    if (dram_banks < 1)
        fatal("mem: need at least one DRAM bank");
    if (control_bytes < 0)
        fatal("mem: control_bytes must be non-negative");
}

MemorySystem::MemorySystem(Simulation &sim, const std::string &name,
                           noc::NetworkModel &net,
                           const MemParams &params, SimObject *parent)
    : SimObject(sim, name, parent), params_(params),
      hub_(sim, "hub", net, params.control_bytes,
           static_cast<std::uint32_t>(params.dataBytes()), this)
{
    // Default delivery wiring straight into the hub; the co-simulation
    // bridge replaces this with a wrapper that also feeds the
    // reciprocal latency table.
    net.setDeliveryHandler(
        [this](const noc::PacketPtr &pkt) { hub_.deliver(pkt); });

    auto nodes = static_cast<NodeId>(net.numNodes());
    auto home_of = [this, nodes](Addr block) {
        return static_cast<NodeId>(
            (block / static_cast<Addr>(params_.block_bytes)) % nodes);
    };
    for (NodeId i = 0; i < nodes; ++i) {
        l1s_.push_back(std::make_unique<L1Cache>(
            sim, "l1_" + std::to_string(i), i, params_, hub_, home_of,
            this));
        dirs_.push_back(std::make_unique<Directory>(
            sim, "dir_" + std::to_string(i), i, params_, hub_, this));
    }
    for (NodeId i = 0; i < nodes; ++i) {
        L1Cache *l1 = l1s_[i].get();
        Directory *dir = dirs_[i].get();
        hub_.registerHandler(i, [l1, dir](const CoherenceMsg &msg) {
            // Responses/forwards for caches; requests and transaction
            // completions for the home slice.
            switch (msg.type) {
              case MsgType::GetS:
              case MsgType::GetM:
              case MsgType::PutM:
              case MsgType::WBData:
              case MsgType::ChownAck:
                dir->handleMessage(msg);
                break;
              default:
                l1->handleMessage(msg);
                break;
            }
        });
    }
}

NodeId
MemorySystem::homeOf(Addr addr) const
{
    return static_cast<NodeId>(
        (params_.blockAlign(addr) /
         static_cast<Addr>(params_.block_bytes)) %
        l1s_.size());
}

bool
MemorySystem::quiescent() const
{
    if (hub_.outstanding() != 0)
        return false;
    for (const auto &l1 : l1s_)
        if (!l1->quiescent())
            return false;
    for (const auto &dir : dirs_)
        if (!dir->quiescent())
            return false;
    return true;
}

void
MemorySystem::save(ArchiveWriter &aw) const
{
    aw.beginSection("memory");
    hub_.save(aw);
    for (const auto &l1 : l1s_)
        l1->save(aw);
    for (const auto &dir : dirs_)
        dir->save(aw);
    aw.endSection();
}

void
MemorySystem::restore(ArchiveReader &ar)
{
    ar.expectSection("memory");
    hub_.restore(ar);
    for (const auto &l1 : l1s_)
        l1->restore(ar);
    for (const auto &dir : dirs_)
        dir->restore(ar);
    ar.endSection();
}

} // namespace mem
} // namespace rasim
