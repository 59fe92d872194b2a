#include "noc/kernel/soa_deflect.hh"

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

/** Oldest-first order: birth, then packet id, then flit sequence. */
bool
olderThan(const DFlit &a, const DFlit &b)
{
    if (a.birth != b.birth)
        return a.birth < b.birth;
    if (a.pkt->id != b.pkt->id)
        return a.pkt->id < b.pkt->id;
    return a.seq < b.seq;
}

} // namespace

void
SoaDeflectFabric::DRing::grow()
{
    std::size_t old = buf.size();
    std::size_t ncap = old ? old * 2 : 8;
    std::vector<DFlit> nb(ncap);
    for (std::uint32_t k = 0; k < size; ++k)
        nb[k] = std::move(buf[(head + k) & (old - 1)]);
    buf = std::move(nb);
    head = 0;
}

SoaDeflectFabric::SoaDeflectFabric(const NocParams &params,
                                   const Topology &topo)
    : params_(params), topo_(topo)
{
    n_ = topo_.numNodes();
    P_ = topo_.numPorts();
    cap_ = P_ - 1;

    if (P_ > static_cast<int>(occ_words))
        fatal("soa kernel supports at most ", occ_words,
              " ports per deflection router; topology '", topo_.name(),
              "' has ", P_);

    simd_ = cpuid::resolveSimdLevel(params_.simd);
    scan_ = activeScanFor(simd_);

    conn_off_.assign(n_ + 1, 0);
    src_off_.assign(n_ + 1, 0);
    dest_word_.assign(static_cast<std::size_t>(n_) * P_, -1);

    std::vector<std::vector<std::int32_t>> sources(n_);
    for (int i = 0; i < n_; ++i) {
        for (int p = 1; p < P_; ++p) {
            int j = topo_.neighbor(i, p);
            if (j < 0)
                continue;
            conn_.push_back(static_cast<std::int8_t>(p));
            // Gather order: upstream node index ascending (then
            // port), the object oracle's fixed source order.
            sources[j].push_back(i * P_ + p);
            dest_word_[static_cast<std::size_t>(i) * P_ + p] =
                static_cast<std::int32_t>(j * occ_words +
                                          topo_.inputPortAt(i, p));
        }
        conn_off_[i + 1] = static_cast<std::int32_t>(conn_.size());
    }
    for (int j = 0; j < n_; ++j) {
        for (std::int32_t s : sources[j])
            src_slot_.push_back(s);
        src_off_[j + 1] = static_cast<std::int32_t>(src_slot_.size());
    }

    arr_.assign(static_cast<std::size_t>(n_) * cap_, DFlit{});
    arr_cnt_.assign(n_, 0);
    out_.assign(static_cast<std::size_t>(n_) * P_, DFlit{});
    injq_.resize(n_);
    rx_.resize(n_);
    scratch_.resize(n_);

    route_occ_.assign(static_cast<std::size_t>(n_) * occ_words, 0);
    gather_occ_.assign(static_cast<std::size_t>(n_) * occ_words, 0);
    route_list_.reserve(n_);
    gather_list_.reserve(n_);
}

std::string
SoaDeflectFabric::description() const
{
    return std::string("soa (simd=") + cpuid::simdLevelName(simd_) +
           ")";
}

void
SoaDeflectFabric::enqueue(std::size_t node, const PacketPtr &pkt,
                          std::uint32_t nflits)
{
    for (std::uint32_t s = 0; s < nflits; ++s) {
        DFlit f;
        f.pkt = pkt;
        f.seq = s;
        injq_[node].push(std::move(f));
    }
    route_occ_[node * occ_words + occ_inject] += nflits;
}

void
SoaDeflectFabric::routeNode(int i, Cycle now,
                            const std::vector<char> &stalled)
{
    DFlit *cand = &arr_[static_cast<std::size_t>(i) * cap_];
    std::uint32_t cnt = arr_cnt_[i];
    NodeScratch &s = scratch_[i];

    // Ejection: one flit per cycle, oldest first. A stalled node's
    // ejection port is wedged: its flits keep routing (bufferless
    // fabrics cannot hold them) but never leave.
    if (cnt > 0 && !stalled[i]) {
        int eject = -1;
        for (std::uint32_t k = 0; k < cnt; ++k) {
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
            for (std::uint32_t k = eject; k + 1 < cnt; ++k)
                cand[k] = std::move(cand[k + 1]);
            --cnt;
            --s.fabric_delta;
            s.eject_deflections.push_back(f.deflections);
            PacketPtr pkt = f.pkt;
            // Hop accounting happens at ejection so a packet's flits
            // never race on the shared Packet.
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

    // Free (connected) output ports, ascending.
    int free_ports[occ_words];
    int nfree = 0;
    for (std::int32_t c = conn_off_[i]; c < conn_off_[i + 1]; ++c)
        free_ports[nfree++] = conn_[c];

    // Injection: one flit per cycle when a slot remains.
    DRing &q = injq_[i];
    if (q.size > 0) {
        if (cnt < static_cast<std::uint32_t>(nfree)) {
            DFlit f = q.pop();
            --route_occ_[static_cast<std::size_t>(i) * occ_words +
                         occ_inject];
            --s.queued_delta;
            ++s.fabric_delta;
            f.birth = now;
            if (f.seq == 0)
                f.pkt->enter_tick = now;
            cand[cnt++] = std::move(f);
        } else {
            ++s.stalls;
        }
    }

    if (cnt > static_cast<std::uint32_t>(nfree))
        panic("deflection: more flits than ports at node ", i);

    // Oldest-first port assignment (insertion sort: the comparator is
    // a total order, so any correct sort matches std::sort exactly).
    for (std::uint32_t a = 1; a < cnt; ++a) {
        DFlit f = std::move(cand[a]);
        std::uint32_t b = a;
        while (b > 0 && olderThan(f, cand[b - 1])) {
            cand[b] = std::move(cand[b - 1]);
            --b;
        }
        cand[b] = std::move(f);
    }

    for (std::uint32_t k = 0; k < cnt; ++k) {
        DFlit &f = cand[k];
        auto [x, y] = topo_.coords(static_cast<NodeId>(i));
        auto [tx, ty] = topo_.coords(f.pkt->dst);
        // Productive direction preference: X first, then Y,
        // honouring torus wrap via the shorter way.
        int prefs[2];
        int nprefs = 0;
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
            prefs[nprefs++] = port_east;
        else if (dx < 0)
            prefs[nprefs++] = port_west;
        if (dy > 0)
            prefs[nprefs++] = port_south;
        else if (dy < 0)
            prefs[nprefs++] = port_north;

        int chosen = -1;
        for (int t = 0; t < nprefs && chosen < 0; ++t)
            for (int w = 0; w < nfree; ++w)
                if (free_ports[w] == prefs[t]) {
                    chosen = prefs[t];
                    for (; w + 1 < nfree; ++w)
                        free_ports[w] = free_ports[w + 1];
                    --nfree;
                    break;
                }
        if (chosen < 0) {
            // Deflected: take any remaining port.
            if (nfree == 0)
                panic("deflection: no port left for a flit");
            chosen = free_ports[0];
            for (int w = 0; w + 1 < nfree; ++w)
                free_ports[w] = free_ports[w + 1];
            --nfree;
            ++f.deflections;
            ++s.deflected;
        }
        ++f.hops;
        std::size_t slot = static_cast<std::size_t>(i) * P_ + chosen;
        out_[slot] = std::move(f);
        gather_occ_[dest_word_[slot]] = 1;
    }
    arr_cnt_[i] = 0;
    route_occ_[static_cast<std::size_t>(i) * occ_words +
               occ_arriving] = 0;
}

void
SoaDeflectFabric::gatherNode(int j)
{
    DFlit *arr = &arr_[static_cast<std::size_t>(j) * cap_];
    std::uint32_t cnt = arr_cnt_[j];
    for (std::int32_t c = src_off_[j]; c < src_off_[j + 1]; ++c) {
        DFlit &slot = out_[src_slot_[c]];
        if (!slot.pkt)
            continue;
        arr[cnt++] = std::move(slot);
        slot.pkt.reset();
    }
    arr_cnt_[j] = cnt;
    // Arrival count feeds the next cycle's route scan; the staged
    // flags this node just consumed are cleared wholesale.
    route_occ_[static_cast<std::size_t>(j) * occ_words +
               occ_arriving] = cnt;
    std::uint32_t *block =
        &gather_occ_[static_cast<std::size_t>(j) * occ_words];
    for (std::size_t w = 0; w < occ_words; ++w)
        block[w] = 0;
}

void
SoaDeflectFabric::route(StepEngine &engine, Cycle now,
                        const std::vector<char> &stalled)
{
    route_list_.resize(n_);
    route_list_.resize(
        scan_(route_occ_.data(), n_, occ_words, route_list_.data()));
    if (route_list_.empty())
        return;
    phase_now_ = now;
    phase_stalled_ = &stalled;
    engine.forRange(route_list_.size(),
                    [this](std::size_t b, std::size_t e) {
                        for (std::size_t k = b; k < e; ++k)
                            routeNode(route_list_[k], phase_now_,
                                      *phase_stalled_);
                    });
}

void
SoaDeflectFabric::gather(StepEngine &engine)
{
    gather_list_.resize(n_);
    gather_list_.resize(
        scan_(gather_occ_.data(), n_, occ_words, gather_list_.data()));
    if (gather_list_.empty())
        return;
    engine.forRange(gather_list_.size(),
                    [this](std::size_t b, std::size_t e) {
                        for (std::size_t k = b; k < e; ++k)
                            gatherNode(gather_list_[k]);
                    });
}

const std::vector<int> &
SoaDeflectFabric::scratchNodes() const
{
    // Only routeNode touches scratch, so the route worklist covers
    // every node with a non-identity fold.
    return route_list_;
}

NodeScratch &
SoaDeflectFabric::scratch(std::size_t node)
{
    return scratch_[node];
}

void
SoaDeflectFabric::save(ArchiveWriter &aw) const
{
    for (const DFlit &df : out_)
        if (df.pkt)
            panic("deflection net: checkpoint mid-cycle "
                  "(staging slot occupied)");

    PacketTable table;
    for (int i = 0; i < n_; ++i)
        for (std::uint32_t k = 0; k < arr_cnt_[i]; ++k)
            collectPacket(table,
                          arr_[static_cast<std::size_t>(i) * cap_ + k]
                              .pkt);
    for (const DRing &q : injq_)
        for (std::uint32_t k = 0; k < q.size; ++k)
            collectPacket(table, q.at(k).pkt);
    savePacketTable(aw, table);

    for (int i = 0; i < n_; ++i) {
        aw.putU64(arr_cnt_[i]);
        for (std::uint32_t k = 0; k < arr_cnt_[i]; ++k)
            saveDFlitFields(
                aw, arr_[static_cast<std::size_t>(i) * cap_ + k]);
    }
    for (const DRing &q : injq_) {
        aw.putU64(q.size);
        for (std::uint32_t k = 0; k < q.size; ++k)
            saveDFlitFields(aw, q.at(k));
    }
    for (const auto &rx : rx_) {
        aw.putU64(rx.size());
        for (const auto &[id, count] : rx) {
            aw.putU64(id);
            aw.putU32(count);
        }
    }
}

void
SoaDeflectFabric::restore(ArchiveReader &ar)
{
    PacketTable table = restorePacketTable(ar);

    for (int i = 0; i < n_; ++i) {
        std::uint64_t cnt = ar.getU64();
        if (cnt > static_cast<std::uint64_t>(cap_))
            panic("soa restore: arrival set larger than port count");
        arr_cnt_[i] = static_cast<std::uint32_t>(cnt);
        for (std::uint64_t k = 0; k < cnt; ++k)
            arr_[static_cast<std::size_t>(i) * cap_ + k] =
                restoreDFlit(ar, table);
    }
    for (DRing &q : injq_) {
        q.head = 0;
        q.size = 0;
        std::uint64_t cnt = ar.getU64();
        for (std::uint64_t k = 0; k < cnt; ++k)
            q.push(restoreDFlit(ar, table));
    }
    for (auto &rx : rx_) {
        rx.clear();
        std::uint64_t cnt = ar.getU64();
        for (std::uint64_t k = 0; k < cnt; ++k) {
            PacketId id = ar.getU64();
            rx[id] = ar.getU32();
        }
    }

    std::fill(route_occ_.begin(), route_occ_.end(), 0);
    std::fill(gather_occ_.begin(), gather_occ_.end(), 0);
    for (int i = 0; i < n_; ++i) {
        route_occ_[static_cast<std::size_t>(i) * occ_words +
                   occ_arriving] = arr_cnt_[i];
        route_occ_[static_cast<std::size_t>(i) * occ_words +
                   occ_inject] = injq_[i].size;
    }
    route_list_.clear();
    gather_list_.clear();
}

std::unique_ptr<DeflectFabric>
makeDeflectFabric(const NocParams &params, const Topology &topo)
{
    return std::make_unique<SoaDeflectFabric>(params, topo);
}

} // namespace kernel
} // namespace noc
} // namespace rasim
