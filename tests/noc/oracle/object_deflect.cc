#include "noc/oracle/object_deflect.hh"

#include <algorithm>

#include "noc/topology.hh"
#include "sim/logging.hh"

namespace rasim
{
namespace noc
{
namespace kernel
{

namespace
{

void
saveDFlitFields(ArchiveWriter &aw, const DFlit &df)
{
    aw.putU64(df.pkt->id);
    aw.putU32(df.seq);
    aw.putU32(df.deflections);
    aw.putU32(df.hops);
    aw.putU64(df.birth);
}

DFlit
restoreDFlit(ArchiveReader &ar, const PacketTable &table)
{
    DFlit df;
    PacketId id = ar.getU64();
    df.seq = ar.getU32();
    df.deflections = ar.getU32();
    df.hops = ar.getU32();
    df.birth = ar.getU64();
    df.pkt = table.at(id);
    return df;
}

} // namespace

ObjectDeflectFabric::ObjectDeflectFabric(const NocParams &params,
                                         const Topology &topo)
    : params_(params), topo_(topo)
{
    int n = topo_.numNodes();
    arriving_.resize(n);
    out_.resize(n);
    sources_.resize(n);
    inject_queues_.resize(n);
    rx_.resize(n);
    scratch_.resize(n);
    for (int i = 0; i < n; ++i)
        out_[i].resize(topo_.numPorts());
    // Gather order: upstream node index ascending (then port), the
    // same order the pre-refactor per-node loop produced arrivals in.
    for (int i = 0; i < n; ++i) {
        for (int p = 1; p < topo_.numPorts(); ++p) {
            int j = topo_.neighbor(i, p);
            if (j >= 0)
                sources_[j].emplace_back(i, p);
        }
    }
    all_nodes_.resize(n);
    for (int i = 0; i < n; ++i)
        all_nodes_[i] = i;
}

std::string
ObjectDeflectFabric::description() const
{
    return "object";
}

void
ObjectDeflectFabric::enqueue(std::size_t node, const PacketPtr &pkt,
                             std::uint32_t nflits)
{
    for (std::uint32_t s = 0; s < nflits; ++s) {
        DFlit f;
        f.pkt = pkt;
        f.seq = s;
        inject_queues_[node].push_back(std::move(f));
    }
}

void
ObjectDeflectFabric::routeNode(int i, Cycle now,
                               const std::vector<char> &stalled)
{
    std::vector<DFlit> &cand = arriving_[i];
    NodeScratch &s = scratch_[i];

    // Ejection: one flit per cycle, oldest first. Reassembly state is
    // per destination node, so only this partition touches rx_[i].
    // A stalled node's ejection port is wedged: its flits keep routing
    // (bufferless fabrics cannot hold them) but never leave — a
    // livelock only the progress watchdog can detect.
    if (!cand.empty() && !stalled[i]) {
        int eject = -1;
        for (std::size_t k = 0; k < cand.size(); ++k) {
            if (cand[k].pkt->dst != static_cast<NodeId>(i))
                continue;
            if (eject < 0 || cand[k].birth < cand[eject].birth ||
                (cand[k].birth == cand[eject].birth &&
                 cand[k].pkt->id < cand[eject].pkt->id)) {
                eject = static_cast<int>(k);
            }
        }
        if (eject >= 0) {
            DFlit f = std::move(cand[eject]);
            cand.erase(cand.begin() + eject);
            --s.fabric_delta;
            s.eject_deflections.push_back(f.deflections);
            PacketPtr pkt = f.pkt;
            // Hop accounting happens at ejection (not en route) so a
            // packet's flits never race on the shared Packet: every
            // flit of a packet ejects at the same node's partition.
            pkt->hops = std::max(pkt->hops, f.hops);
            std::uint32_t want =
                params_.flitsPerPacket(pkt->size_bytes);
            auto &rx = rx_[i];
            if (++rx[pkt->id] == want) {
                rx.erase(pkt->id);
                pkt->deliver_tick = now + 1;
                s.delivered.push_back(pkt);
            }
        }
    }

    // Count usable (connected) output ports.
    std::vector<int> free_ports;
    for (int p = 1; p < topo_.numPorts(); ++p)
        if (topo_.neighbor(i, p) >= 0)
            free_ports.push_back(p);

    // Injection: one flit per cycle when a slot remains.
    if (!inject_queues_[i].empty()) {
        if (cand.size() < free_ports.size()) {
            DFlit f = std::move(inject_queues_[i].front());
            inject_queues_[i].pop_front();
            --s.queued_delta;
            ++s.fabric_delta;
            f.birth = now;
            if (f.seq == 0)
                f.pkt->enter_tick = now;
            cand.push_back(std::move(f));
        } else {
            ++s.stalls;
        }
    }

    if (cand.size() > free_ports.size())
        panic("deflection: more flits than ports at node ", i);

    // Oldest-first port assignment.
    std::sort(cand.begin(), cand.end(),
              [](const DFlit &a, const DFlit &b) {
                  if (a.birth != b.birth)
                      return a.birth < b.birth;
                  if (a.pkt->id != b.pkt->id)
                      return a.pkt->id < b.pkt->id;
                  return a.seq < b.seq;
              });

    for (DFlit &f : cand) {
        auto [x, y] = topo_.coords(static_cast<NodeId>(i));
        auto [tx, ty] = topo_.coords(f.pkt->dst);
        // Productive direction preference: X first, then Y,
        // honouring torus wrap via the shorter way.
        std::vector<int> prefs;
        int dx = tx - x, dy = ty - y;
        if (topo_.isWrapLink(topo_.nodeAt(topo_.columns() - 1, y),
                             port_east)) {
            if (dx > topo_.columns() / 2)
                dx -= topo_.columns();
            else if (dx < -(topo_.columns() / 2))
                dx += topo_.columns();
            if (dy > topo_.rows() / 2)
                dy -= topo_.rows();
            else if (dy < -(topo_.rows() / 2))
                dy += topo_.rows();
        }
        if (dx > 0)
            prefs.push_back(port_east);
        else if (dx < 0)
            prefs.push_back(port_west);
        if (dy > 0)
            prefs.push_back(port_south);
        else if (dy < 0)
            prefs.push_back(port_north);

        int chosen = -1;
        for (int p : prefs) {
            auto it =
                std::find(free_ports.begin(), free_ports.end(), p);
            if (it != free_ports.end()) {
                chosen = p;
                free_ports.erase(it);
                break;
            }
        }
        if (chosen < 0) {
            // Deflected: take any remaining port.
            if (free_ports.empty())
                panic("deflection: no port left for a flit");
            chosen = free_ports.front();
            free_ports.erase(free_ports.begin());
            ++f.deflections;
            ++s.deflected;
        }
        ++f.hops;
        out_[i][chosen] = std::move(f);
    }
    cand.clear();
}

void
ObjectDeflectFabric::gatherNode(int j)
{
    std::vector<DFlit> &arr = arriving_[j];
    for (const auto &[i, p] : sources_[j]) {
        DFlit &slot = out_[i][p];
        if (!slot.pkt)
            continue;
        arr.push_back(std::move(slot));
        slot.pkt.reset();
    }
}

void
ObjectDeflectFabric::route(StepEngine &engine, Cycle now,
                           const std::vector<char> &stalled)
{
    std::size_t n = arriving_.size();
    engine.forEach(n, [this, now, &stalled](std::size_t i) {
        routeNode(static_cast<int>(i), now, stalled);
    });
}

void
ObjectDeflectFabric::gather(StepEngine &engine)
{
    std::size_t n = arriving_.size();
    engine.forEach(n, [this](std::size_t j) {
        gatherNode(static_cast<int>(j));
    });
}

const std::vector<int> &
ObjectDeflectFabric::scratchNodes() const
{
    return all_nodes_;
}

NodeScratch &
ObjectDeflectFabric::scratch(std::size_t node)
{
    return scratch_[node];
}

void
ObjectDeflectFabric::save(ArchiveWriter &aw) const
{
    // out_ staging is drained every cycle; a populated slot would mean
    // the checkpoint was taken mid-cycle.
    for (const auto &slots : out_)
        for (const DFlit &df : slots)
            if (df.pkt)
                panic("deflection net: checkpoint mid-cycle "
                      "(staging slot occupied)");

    PacketTable table;
    for (const auto &flits : arriving_)
        for (const DFlit &df : flits)
            collectPacket(table, df.pkt);
    for (const auto &q : inject_queues_)
        for (const DFlit &df : q)
            collectPacket(table, df.pkt);
    savePacketTable(aw, table);

    for (const auto &flits : arriving_) {
        aw.putU64(flits.size());
        for (const DFlit &df : flits)
            saveDFlitFields(aw, df);
    }
    for (const auto &q : inject_queues_) {
        aw.putU64(q.size());
        for (const DFlit &df : q)
            saveDFlitFields(aw, df);
    }
    // FlatMap iterates in ascending id order — same bytes as the
    // sort-before-save loop this replaces.
    for (const auto &rx : rx_) {
        aw.putU64(rx.size());
        for (const auto &[id, count] : rx) {
            aw.putU64(id);
            aw.putU32(count);
        }
    }
}

void
ObjectDeflectFabric::restore(ArchiveReader &ar)
{
    PacketTable table = restorePacketTable(ar);

    for (auto &flits : arriving_) {
        flits.clear();
        std::uint64_t n = ar.getU64();
        for (std::uint64_t i = 0; i < n; ++i)
            flits.push_back(restoreDFlit(ar, table));
    }
    for (auto &q : inject_queues_) {
        q.clear();
        std::uint64_t n = ar.getU64();
        for (std::uint64_t i = 0; i < n; ++i)
            q.push_back(restoreDFlit(ar, table));
    }
    for (auto &rx : rx_) {
        rx.clear();
        std::uint64_t n = ar.getU64();
        for (std::uint64_t i = 0; i < n; ++i) {
            PacketId id = ar.getU64();
            rx[id] = ar.getU32();
        }
    }
}

} // namespace kernel
} // namespace noc
} // namespace rasim
