#include "noc/kernel/soa_cycle.hh"

#include <bit>
#include <cstring>

#include "noc/routing.hh"
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

std::uint32_t
roundPow2(std::uint32_t v)
{
    std::uint32_t c = 1;
    while (c < v)
        c <<= 1;
    return c;
}

/** A round-robin pointer from an archive. The arbiters advance by
 *  increment-and-wrap, so a pointer must already lie in [0, n). */
std::int32_t
getPointer(ArchiveReader &ar, int n, const char *what)
{
    std::int64_t v = ar.getI64();
    if (v < 0 || v >= n)
        panic("soa restore: ", what, " pointer ", v,
              " outside [0, ", n, ")");
    return static_cast<std::int32_t>(v);
}

/** x + 1 modulo n, for x in [0, n): the arbiters' step, free of a
 *  division by a runtime n. */
inline int
wrapInc(int x, int n)
{
    return x + 1 == n ? 0 : x + 1;
}

/** Bits of @p m at positions >= @p from (from < 32). */
inline std::uint32_t
bitsFrom(std::uint32_t m, int from)
{
    return m & (~0u << from);
}

/** Bits of @p m at positions < @p from (from < 32). */
inline std::uint32_t
bitsBelow(std::uint32_t m, int from)
{
    return m & ~(~0u << from);
}

} // namespace

SoaCycleFabric::RouterStats::RouterStats(stats::Group *parent, int id)
    : stats::Group(parent, "router" + std::to_string(id)),
      flitsRouted(this, "flits_routed",
                  "flits moved through the crossbar"),
      bufferWrites(this, "buffer_writes",
                   "flits written into input buffers"),
      linkTraversals(this, "link_traversals",
                     "flits sent over inter-router links")
{
}

SoaCycleFabric::NicStats::NicStats(stats::Group *parent, int node)
    : stats::Group(parent, "nic" + std::to_string(node)),
      flitsSent(this, "flits_sent", "flits injected into the router"),
      flitsReceived(this, "flits_received",
                    "flits ejected to this NIC")
{
}

void
SoaCycleFabric::FlitRing::grow()
{
    std::size_t old = buf.size();
    std::size_t ncap = old ? old * 2 : 8;
    std::vector<SoaFlit> nb(ncap);
    for (std::uint32_t k = 0; k < size; ++k)
        nb[k] = buf[(head + k) & (old - 1)];
    buf = std::move(nb);
    head = 0;
}

SoaCycleFabric::SoaCycleFabric(stats::Group *parent,
                               const NocParams &params,
                               const Topology &topo,
                               const RoutingAlgorithm &routing)
    : params_(params), topo_(topo), routing_(routing)
{
    n_ = topo.numNodes();
    P_ = topo.numPorts();
    V_ = params_.totalVcs();
    D_ = params_.buffer_depth;
    C_ = num_vnets * params_.vc_classes;

    if (P_ > max_ports)
        fatal("soa kernel supports at most ", max_ports,
              " ports per router; topology '", topo.name(), "' has ",
              P_);

    simd_ = cpuid::resolveSimdLevel(params_.simd);
    scan_ = activeScanFor(simd_);

    // Stats tree: router/NIC groups interleaved in node order, the
    // exact child order the object oracle creates, so stats archives
    // are interchangeable across kernels.
    router_stats_.reserve(n_);
    nic_stats_.reserve(n_);
    for (int i = 0; i < n_; ++i) {
        router_stats_.push_back(
            std::make_unique<RouterStats>(parent, i));
        nic_stats_.push_back(std::make_unique<NicStats>(parent, i));
    }

    std::size_t npv = static_cast<std::size_t>(n_) * P_ * V_;
    std::size_t np = static_cast<std::size_t>(n_) * P_;
    in_vc_.assign(npv, InVc{});
    out_vc_.assign(npv, OutVc{});
    ports_.assign(np, Port{});
    fifo_.assign(npv * D_, SoaFlit{});
    op_va_rr_.assign(np * C_, 0);

    nicq_.assign(static_cast<std::size_t>(n_) * num_vnets, FlitRing{});
    // Pre-size every injection ring past the common case (a couple of
    // queued packets) so steady state never pays a first-touch grow;
    // rings still grow on demand under sustained backpressure.
    for (FlitRing &q : nicq_)
        q.buf.resize(16);
    nicq_cur_vc_.assign(static_cast<std::size_t>(n_) * num_vnets, -1);
    inj_busy_.assign(static_cast<std::size_t>(n_) * V_, 0);
    inj_credits_.assign(static_cast<std::size_t>(n_) * V_,
                        params_.buffer_depth);
    nic_va_rr_.assign(static_cast<std::size_t>(n_) * num_vnets, 0);
    nic_rr_vnet_.assign(n_, 0);
    nic_queued_.assign(n_, 0);

    // First-touch reservations, so the first cycles allocate no more
    // than steady state does: a node reassembles at most one packet
    // per ejection VC and ejects at most one tail per cycle; the slot
    // table starts with room for one packet per input VC.
    rx_.resize(n_);
    completed_.resize(n_);
    freed_.resize(n_);
    done_.assign((static_cast<std::size_t>(n_) + 7) & ~std::size_t{7}, 0);
    for (int i = 0; i < n_; ++i) {
        rx_[i].reserve(V_);
        completed_[i].reserve(1);
        freed_[i].reserve(1);
    }
    completed_nodes_.reserve(n_);
    slot_owner_.reserve(npv);
    slot_pkt_.reserve(npv);
    free_slots_.reserve(npv);

    compute_occ_.assign(static_cast<std::size_t>(n_) * compute_words,
                        0);
    commit_occ_.assign(static_cast<std::size_t>(n_) * commit_words, 0);
    ranges_ = WorkRanges(n_);
    worklist_.assign(n_, 0);
    route_scratch_.resize(n_);
    for (auto &s : route_scratch_)
        s.reserve(8);

    deltas_.assign(n_, StatDeltas{});

    // Links in the object oracle's creation order (the archive link
    // order): all router-to-router links, then per node the injection
    // and ejection links. The occupancy pointers are stable because
    // the occ arrays were sized above and never reallocate.
    auto add_link = [this](int latency, std::uint32_t *flit_occ,
                           std::uint32_t *cred_occ) {
        SoaLink l;
        l.latency = latency;
        l.cap = roundPow2(static_cast<std::uint32_t>(V_) * D_ +
                          latency + 2);
        l.flits.resize(l.cap);
        l.credits.resize(l.cap);
        l.flit_occ = flit_occ;
        l.cred_occ = cred_occ;
        links_.push_back(std::move(l));
        return static_cast<std::int32_t>(links_.size() - 1);
    };

    for (int i = 0; i < n_; ++i) {
        for (int p = 1; p < P_; ++p) {
            int j = topo.neighbor(i, p);
            if (j < 0)
                continue;
            int q = topo.inputPortAt(i, p);
            std::int32_t id = add_link(
                params_.link_latency,
                &commit_occ_[static_cast<std::size_t>(j) *
                                 commit_words + q],
                &commit_occ_[static_cast<std::size_t>(i) *
                                 commit_words +
                             occ_out_credit_base + p]);
            ports_[pi(i, p)].out_link = id;
            ports_[pi(j, q)].in_link = id;
            // connectOutput: initial credits = downstream depth.
            for (int v = 0; v < V_; ++v)
                out_vc_[vi(i, p, v)].credits = params_.buffer_depth;
        }
    }
    for (int i = 0; i < n_; ++i) {
        std::int32_t inj = add_link(
            1,
            &commit_occ_[static_cast<std::size_t>(i) * commit_words +
                         port_local],
            &compute_occ_[static_cast<std::size_t>(i) * compute_words +
                          occ_inj_credits]);
        ports_[pi(i, port_local)].in_link = inj;

        std::int32_t ej = add_link(
            1,
            &commit_occ_[static_cast<std::size_t>(i) * commit_words +
                         occ_ej_flits],
            &commit_occ_[static_cast<std::size_t>(i) * commit_words +
                         occ_out_credit_base + port_local]);
        ports_[pi(i, port_local)].out_link = ej;
        for (int v = 0; v < V_; ++v)
            out_vc_[vi(i, port_local, v)].credits = params_.buffer_depth;
    }
}

std::string
SoaCycleFabric::description() const
{
    return std::string("soa (simd=") + cpuid::simdLevelName(simd_) +
           ")";
}

void
SoaCycleFabric::pushFlit(SoaLink &l, Cycle now, const SoaFlit &f)
{
    if (l.fsize >= l.cap)
        panic("soa link: flit ring overflow "
              "(credit protocol violated)");
    TimedFlit &slot = l.flits[(l.fhead + l.fsize) & (l.cap - 1)];
    slot.cycle = now + l.latency - 1;
    slot.flit = f;
    ++l.fsize;
    ++*l.flit_occ;
}

SoaCycleFabric::SoaFlit
SoaCycleFabric::popFlit(SoaLink &l)
{
    SoaFlit f = l.flits[l.fhead].flit;
    l.fhead = --l.fsize == 0 ? 0 : (l.fhead + 1) & (l.cap - 1);
    --*l.flit_occ;
    return f;
}

void
SoaCycleFabric::pushCredit(SoaLink &l, Cycle now, int vc)
{
    if (l.csize >= l.cap)
        panic("soa link: credit ring overflow "
              "(credit protocol violated)");
    TimedCredit &slot = l.credits[(l.chead + l.csize) & (l.cap - 1)];
    slot.cycle = now + l.latency - 1;
    slot.vc = static_cast<std::int16_t>(vc);
    ++l.csize;
    ++*l.cred_occ;
}

int
SoaCycleFabric::popCredit(SoaLink &l)
{
    int vc = l.credits[l.chead].vc;
    l.chead = --l.csize == 0 ? 0 : (l.chead + 1) & (l.cap - 1);
    --*l.cred_occ;
    return vc;
}

void
SoaCycleFabric::enqueue(std::size_t node, const PacketPtr &pkt,
                        Cycle now)
{
    (void)now;
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slot_owner_.size());
        slot_owner_.push_back(pkt);
        slot_pkt_.push_back(pkt.get());
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slot_owner_[slot] = pkt;
        slot_pkt_[slot] = pkt.get();
    }

    std::uint32_t nflits = params_.flitsPerPacket(pkt->size_bytes);
    auto vnet = static_cast<std::uint8_t>(pkt->cls);
    FlitRing &q = nicq_[node * num_vnets + vnet];
    for (std::uint32_t i = 0; i < nflits; ++i) {
        SoaFlit f;
        if (nflits == 1)
            f.type = FlitType::HeadTail;
        else if (i == 0)
            f.type = FlitType::Head;
        else if (i == nflits - 1)
            f.type = FlitType::Tail;
        else
            f.type = FlitType::Body;
        f.vnet = vnet;
        f.seq = static_cast<std::uint16_t>(i);
        f.slot = slot;
        q.push(f);
    }
    nic_queued_[node] += nflits;
    compute_occ_[node * compute_words + occ_nic_queued] += nflits;
}

void
SoaCycleFabric::nicCompute(int i, Cycle now)
{
    // Credits from the router (input buffer slots freed).
    SoaLink &inj = links_[ports_[pi(i, port_local)].in_link];
    while (creditReady(inj, now))
        ++inj_credits_[static_cast<std::size_t>(i) * V_ +
                       popCredit(inj)];

    // Inject at most one flit per cycle, round-robin over vnets.
    const int vpv = params_.vcs_per_vnet;
    int v = nic_rr_vnet_[i];
    for (int k = 0; k < num_vnets; ++k, v = wrapInc(v, num_vnets)) {
        FlitRing &q = nicq_[static_cast<std::size_t>(i) * num_vnets + v];
        if (q.size == 0)
            continue;
        SoaFlit &front = q.front();
        int vc = nicq_cur_vc_[static_cast<std::size_t>(i) * num_vnets +
                              v];
        if (front.isHead()) {
            // Allocate a fresh VC (class 0: datelines apply only to
            // router-to-router hops).
            std::int32_t &rr =
                nic_va_rr_[static_cast<std::size_t>(i) * num_vnets + v];
            vc = -1;
            int idx = rr;
            for (int t = 0; t < vpv; ++t, idx = wrapInc(idx, vpv)) {
                int cand = params_.vcIndex(v, 0, idx);
                std::size_t x =
                    static_cast<std::size_t>(i) * V_ + cand;
                if (!inj_busy_[x] && inj_credits_[x] > 0) {
                    vc = cand;
                    rr = wrapInc(idx, vpv);
                    break;
                }
            }
            if (vc < 0)
                continue; // no VC or no credit: try another vnet
            inj_busy_[static_cast<std::size_t>(i) * V_ + vc] = 1;
            nicq_cur_vc_[static_cast<std::size_t>(i) * num_vnets + v] =
                vc;
            slot_pkt_[front.slot]->enter_tick = now;
        } else if (vc < 0 ||
                   inj_credits_[static_cast<std::size_t>(i) * V_ +
                                vc] <= 0) {
            continue; // streaming body flits but out of credits
        }

        SoaFlit f = q.pop();
        --nic_queued_[i];
        --compute_occ_[static_cast<std::size_t>(i) * compute_words +
                       occ_nic_queued];
        f.vc = static_cast<std::int8_t>(vc);
        f.vc_class = 0;
        f.ready_cycle = now;
        --inj_credits_[static_cast<std::size_t>(i) * V_ + vc];
        if (f.isTail()) {
            inj_busy_[static_cast<std::size_t>(i) * V_ + vc] = 0;
            nicq_cur_vc_[static_cast<std::size_t>(i) * num_vnets + v] =
                -1;
        }
        pushFlit(inj, now, f);
        ++deltas_[i].flits_sent;
        nic_rr_vnet_[i] = wrapInc(v, num_vnets);
        break;
    }
}

std::uint8_t
SoaCycleFabric::dimOf(int port)
{
    switch (port) {
      case port_east:
      case port_west:
        return 0;
      case port_north:
      case port_south:
        return 1;
      default:
        return 2;
    }
}

std::uint8_t
SoaCycleFabric::nextVcClass(int i, const SoaFlit &head,
                            int out_port) const
{
    if (params_.vc_classes == 1 || out_port == port_local)
        return 0;
    std::uint8_t dim = dimOf(out_port);
    // The dateline class is per dimension: reset on dimension change,
    // set after crossing the wrap link of the current dimension.
    std::uint8_t cls = (dim == head.last_dim) ? head.vc_class : 0;
    if (topo_.isWrapLink(i, out_port))
        cls = 1;
    return cls;
}

int
SoaCycleFabric::selectOutputPort(int i, const SoaFlit &head,
                                 const std::vector<int> &cand,
                                 int in_port) const
{
    if (cand.size() == 1)
        return cand[0];
    // Adaptive selection: most free credits in the pool the packet
    // would use; ties break towards the first candidate the routing
    // algorithm listed (its static preference).
    int best = -1;
    int best_credits = -1;
    for (int port : cand) {
        if (port == in_port)
            continue; // no U-turns
        int cls = nextVcClass(i, head, port);
        int credits = 0;
        for (int k = 0; k < params_.vcs_per_vnet; ++k) {
            int vc = params_.vcIndex(head.vnet, cls, k);
            const OutVc &o = out_vc_[vi(i, port, vc)];
            if (!o.busy)
                credits += o.credits;
        }
        if (credits > best_credits) {
            best_credits = credits;
            best = port;
        }
    }
    return best >= 0 ? best : cand[0];
}

int
SoaCycleFabric::allocateOutVc(int i, int out_port, int vnet, int cls)
{
    std::int32_t &rr =
        op_va_rr_[pi(i, out_port) * C_ + vnet * params_.vc_classes +
                  cls];
    const int vpv = params_.vcs_per_vnet;
    int idx = rr;
    for (int k = 0; k < vpv; ++k, idx = wrapInc(idx, vpv)) {
        int vc = params_.vcIndex(vnet, cls, idx);
        OutVc &o = out_vc_[vi(i, out_port, vc)];
        if (!o.busy) {
            o.busy = 1;
            rr = wrapInc(idx, vpv);
            return vc;
        }
    }
    return -1;
}

void
SoaCycleFabric::routerComputeVa(int i)
{
    // Rotate the starting input port each cycle so no port enjoys
    // permanent priority for fresh output VCs. Within a port, NeedVA
    // VCs come off the mask in ascending bit (= VC index) order.
    int p = phase_va_start_;
    for (int k = 0; k < P_; ++k, p = wrapInc(p, P_)) {
        std::size_t pp = pi(i, p);
        Port &port = ports_[pp];
        std::uint32_t need = port.needva;
        if (need == 0)
            continue;
        if (need & ~port.nonempty)
            panic("router", i, ": NeedVA VC with empty fifo");
        for (; need != 0; need &= need - 1) {
            int v = std::countr_zero(need);
            std::size_t x = pp * V_ + v;
            const SoaFlit &head = fifoFront(x);
            if (!head.isHead())
                panic("router", i, ": NeedVA VC fronted by body flit");
            auto &scratch = route_scratch_[i];
            scratch.clear();
            routing_.route(topo_, i, slot_pkt_[head.slot]->dst, scratch);
            int out_port = selectOutputPort(i, head, scratch, p);
            std::uint8_t cls = nextVcClass(i, head, out_port);
            int out_vc = allocateOutVc(i, out_port, head.vnet, cls);
            if (out_vc < 0)
                continue; // retry next cycle
            InVc &ivc = in_vc_[x];
            ivc.state = vc_active;
            port.needva &= ~(1u << v);
            ivc.out_port = static_cast<std::int16_t>(out_port);
            ivc.out_vc = static_cast<std::int16_t>(out_vc);
            ivc.out_class = cls;
            ivc.out_dim = dimOf(out_port);
        }
    }
}

int
SoaCycleFabric::firstReadyVc(int i, std::size_t pp, std::uint32_t mask,
                             Cycle now) const
{
    for (; mask != 0; mask &= mask - 1) {
        int v = std::countr_zero(mask);
        std::size_t x = pp * V_ + v;
        const InVc &ivc = in_vc_[x];
        if (ivc.state != vc_active)
            continue;
        if (fifoFront(x).ready_cycle > now)
            continue;
        if (out_vc_[vi(i, ivc.out_port, ivc.out_vc)].credits <= 0)
            continue;
        return v;
    }
    return -1;
}

void
SoaCycleFabric::routerComputeSa(int i, Cycle now)
{
    int winner[max_ports] = {};
    std::uint32_t requests[max_ports] = {}; ///< per out-port: in-ports
    std::uint32_t out_ports = 0;            ///< out-ports requested

    // Input stage: each input port nominates one ready VC, scanning
    // its active VCs round-robin from ip_sa_rr (upper bits first,
    // then the wrapped lower bits), and files a request with that
    // VC's output port.
    for (int p = 0; p < P_; ++p) {
        std::size_t pp = pi(i, p);
        const Port &port = ports_[pp];
        std::uint32_t cand = port.nonempty & ~port.needva;
        if (cand == 0)
            continue;
        int rr = port.ip_sa_rr;
        int v = firstReadyVc(i, pp, bitsFrom(cand, rr), now);
        if (v < 0)
            v = firstReadyVc(i, pp, bitsBelow(cand, rr), now);
        if (v < 0)
            continue;
        winner[p] = v;
        int op = in_vc_[pp * V_ + v].out_port;
        out_ports |= 1u << op;
        requests[op] |= 1u << p;
    }

    // Output stage: each requested output port grants one input port,
    // round-robin from op_sa_rr. Every input port requests at most
    // one output port, so grants never contend with each other.
    for (; out_ports != 0; out_ports &= out_ports - 1) {
        int op = std::countr_zero(out_ports);
        Port &oport = ports_[pi(i, op)];
        std::int32_t out_id = oport.out_link;
        if (out_id < 0)
            continue;
        std::uint32_t req = requests[op];
        std::uint32_t hi = bitsFrom(req, oport.op_sa_rr);
        int granted = std::countr_zero(hi != 0 ? hi : req);
        oport.op_sa_rr = wrapInc(granted, P_);

        // Switch + link traversal for the granted flit.
        int v = winner[granted];
        std::size_t gp = pi(i, granted);
        Port &gport = ports_[gp];
        std::size_t x = gp * V_ + v;
        InVc &ivc = in_vc_[x];
        gport.ip_sa_rr = wrapInc(v, V_);
        SoaFlit f = fifo_[x * D_ + ivc.fifo_head];
        if (--ivc.fifo_size == 0) {
            ivc.fifo_head = 0;
            gport.nonempty &= ~(1u << v);
        } else {
            std::uint16_t h = static_cast<std::uint16_t>(ivc.fifo_head + 1);
            ivc.fifo_head = h == D_ ? 0 : h;
        }
        --compute_occ_[static_cast<std::size_t>(i) * compute_words +
                       occ_buffered];
        int out_vc = ivc.out_vc;
        f.vc = static_cast<std::int8_t>(out_vc);
        f.vc_class = ivc.out_class;
        if (op != port_local) {
            f.last_dim = ivc.out_dim;
            ++deltas_[i].link_traversals;
            if (f.isHead())
                ++slot_pkt_[f.slot]->hops;
        }
        OutVc &ovc = out_vc_[vi(i, op, out_vc)];
        --ovc.credits;
        ++deltas_[i].flits_routed;

        pushFlit(links_[out_id], now, f);

        // Return the freed buffer slot to the upstream sender.
        if (gport.in_link >= 0)
            pushCredit(links_[gport.in_link], now, v);

        if (f.isTail()) {
            ovc.busy = 0;
            ivc.out_port = -1;
            ivc.out_vc = -1;
            if (ivc.fifo_size == 0) {
                ivc.state = vc_idle;
            } else {
                if (!fifoFront(x).isHead())
                    panic("router", i,
                          ": tail departed but next flit is not a "
                          "head");
                ivc.state = vc_need_va;
                gport.needva |= 1u << v;
            }
        }
    }
}

void
SoaCycleFabric::routerCommit(int i, Cycle now)
{
    // A zero occupancy word proves the link pipeline behind it empty,
    // so the port is skipped without touching its link.
    const std::uint32_t *occ =
        &commit_occ_[static_cast<std::size_t>(i) * commit_words];
    for (int p = 0; p < P_; ++p) {
        if (occ[p] == 0)
            continue;
        Port &port = ports_[pi(i, p)];
        if (port.in_link < 0)
            continue;
        SoaLink &l = links_[port.in_link];
        while (flitReady(l, now)) {
            SoaFlit f = popFlit(l);
            if (f.vc < 0 || f.vc >= V_)
                panic("router", i, ": flit with unallocated VC");
            std::size_t x = vi(i, p, f.vc);
            InVc &ivc = in_vc_[x];
            if (ivc.fifo_size >= D_)
                panic("router", i, " port ", portName(p), " vc ",
                      static_cast<int>(f.vc),
                      ": buffer overflow (credit protocol violated)");
            f.ready_cycle = now + params_.pipeline_stages;
            ++deltas_[i].buffer_writes;
            bool was_empty = ivc.fifo_size == 0;
            std::uint32_t bit = 1u << f.vc;
            std::uint32_t slot = ivc.fifo_head + ivc.fifo_size;
            if (slot >= static_cast<std::uint32_t>(D_))
                slot -= D_;
            fifo_[x * D_ + slot] = f;
            ++ivc.fifo_size;
            port.nonempty |= bit;
            ++compute_occ_[static_cast<std::size_t>(i) *
                               compute_words +
                           occ_buffered];
            if (ivc.state == vc_idle) {
                if (!was_empty || !f.isHead())
                    panic("router", i,
                          ": idle VC must receive a head flit first");
                ivc.state = vc_need_va;
                port.needva |= bit;
            }
        }
    }
    for (int p = 0; p < P_; ++p) {
        if (occ[occ_out_credit_base + p] == 0)
            continue;
        std::int32_t out_id = ports_[pi(i, p)].out_link;
        if (out_id < 0)
            continue;
        SoaLink &l = links_[out_id];
        while (creditReady(l, now))
            ++out_vc_[vi(i, p, popCredit(l))].credits;
    }
}

void
SoaCycleFabric::nicCommit(int i, Cycle now)
{
    SoaLink &ej = links_[ports_[pi(i, port_local)].out_link];
    while (flitReady(ej, now)) {
        SoaFlit f = popFlit(ej);
        // The ejection buffer drains instantly: return the credit for
        // the slot right away.
        pushCredit(ej, now, f.vc);
        ++deltas_[i].flits_received;
        Packet *pkt = slot_pkt_[f.slot];
        std::uint32_t want = params_.flitsPerPacket(pkt->size_bytes);
        std::uint32_t got = ++rx_[i][pkt->id];
        if (got == want) {
            rx_[i].erase(pkt->id);
            pkt->deliver_tick = now + 1;
            completed_[i].push_back(std::move(slot_owner_[f.slot]));
            freed_[i].push_back(f.slot);
            done_[i] = 1;
        } else if (got > want) {
            panic("nic", i, ": duplicate flits for packet ", pkt->id);
        }
    }
}

void
SoaCycleFabric::flushStats()
{
    // Once per advanceTo: re-cut the node ranges by the work each node
    // did since the last cut (never per cycle, so slots keep their
    // nodes' state in cache across a whole quantum).
    ranges_.rebalance();

    // The deltas are integer-valued and every running total stays far
    // below 2^53, so one batched double add lands on the same value
    // as the object oracle's per-event increments.
    for (int i = 0; i < n_; ++i) {
        StatDeltas &d = deltas_[i];
        RouterStats &r = *router_stats_[i];
        r.flitsRouted += static_cast<double>(d.flits_routed);
        r.bufferWrites += static_cast<double>(d.buffer_writes);
        r.linkTraversals += static_cast<double>(d.link_traversals);
        nic_stats_[i]->flitsSent += static_cast<double>(d.flits_sent);
        nic_stats_[i]->flitsReceived +=
            static_cast<double>(d.flits_received);
        d = StatDeltas{};
    }
}

std::size_t
SoaCycleFabric::scanRange(const std::vector<std::uint32_t> &occ,
                          std::size_t words, std::size_t lo,
                          std::size_t hi)
{
    return scan_(occ.data() + lo * words, hi - lo, words,
                 worklist_.data() + lo);
}

void
SoaCycleFabric::compute(StepEngine &engine, Cycle now)
{
    phase_now_ = now;
    phase_va_start_ = static_cast<int>(now % P_);
    engine.forRange(
        ranges_.units(), [this](std::size_t b, std::size_t e) {
            auto [lo, hi] = ranges_.nodes(b, e);
            std::size_t cnt = scanRange(compute_occ_, compute_words, lo, hi);
            Cycle now = phase_now_;
            for (std::size_t k = 0; k < cnt; ++k) {
                int i = static_cast<int>(lo) + worklist_[lo + k];
                ranges_.visit(i);
                nicCompute(i, now);
                routerComputeVa(i);
                routerComputeSa(i, now);
            }
        });
}

void
SoaCycleFabric::commit(StepEngine &engine, Cycle now)
{
    completed_nodes_.clear();
    phase_now_ = now;
    engine.forRange(
        ranges_.units(), [this](std::size_t b, std::size_t e) {
            auto [lo, hi] = ranges_.nodes(b, e);
            std::size_t cnt = scanRange(commit_occ_, commit_words, lo, hi);
            Cycle now = phase_now_;
            for (std::size_t k = 0; k < cnt; ++k) {
                int i = static_cast<int>(lo) + worklist_[lo + k];
                ranges_.visit(i);
                routerCommit(i, now);
                nicCommit(i, now);
            }
        });
    // Sequential post-barrier pass over the done flags, eight at a
    // time: return the slots of packets whose tail ejected to the free
    // list in node order, and list the nodes with deliveries for the
    // orchestrator.
    for (std::size_t w = 0; w < done_.size(); w += 8) {
        std::uint64_t any;
        std::memcpy(&any, &done_[w], sizeof any);
        if (any == 0)
            continue;
        for (std::size_t i = w; i < w + 8; ++i) {
            if (!done_[i])
                continue;
            for (std::uint32_t s : freed_[i]) {
                slot_pkt_[s] = nullptr;
                free_slots_.push_back(s);
            }
            freed_[i].clear();
            done_[i] = 0;
            completed_nodes_.push_back(static_cast<int>(i));
        }
    }
}

std::vector<PacketPtr> &
SoaCycleFabric::completed(std::size_t node)
{
    return completed_[node];
}

const std::vector<int> &
SoaCycleFabric::completedNodes() const
{
    return completed_nodes_;
}

RouterActivity
SoaCycleFabric::routerActivity(std::size_t node) const
{
    RouterActivity a;
    a.flits_routed = router_stats_[node]->flitsRouted.value();
    a.buffer_writes = router_stats_[node]->bufferWrites.value();
    a.link_traversals = router_stats_[node]->linkTraversals.value();
    return a;
}

void
SoaCycleFabric::saveSoaFlit(ArchiveWriter &aw, const SoaFlit &f) const
{
    aw.putU8(static_cast<std::uint8_t>(f.type));
    aw.putU8(f.vnet);
    aw.putU8(static_cast<std::uint8_t>(f.vc));
    aw.putU8(f.vc_class);
    aw.putU8(f.last_dim);
    aw.putU32(f.seq);
    aw.putU64(f.ready_cycle);
    aw.putU64(slot_pkt_[f.slot]->id);
    aw.putBool(true);
}

SoaCycleFabric::SoaFlit
SoaCycleFabric::restoreSoaFlit(
    ArchiveReader &ar, const FlatMap<PacketId, std::uint32_t> &slot_of)
{
    SoaFlit f;
    f.type = static_cast<FlitType>(ar.getU8());
    f.vnet = ar.getU8();
    f.vc = static_cast<std::int8_t>(ar.getU8());
    f.vc_class = ar.getU8();
    f.last_dim = ar.getU8();
    f.seq = static_cast<std::uint16_t>(ar.getU32());
    f.ready_cycle = ar.getU64();
    PacketId id = ar.getU64();
    if (!ar.getBool())
        panic("soa restore: flit without a packet");
    f.slot = slot_of.at(id);
    return f;
}

void
SoaCycleFabric::save(ArchiveWriter &aw) const
{
    // Packet table: every occupied slot is a packet with a flit in a
    // FIFO, NIC queue or link, the set the object oracle collects,
    // and the table orders by id, so the bytes match.
    PacketTable table;
    for (std::size_t s = 0; s < slot_pkt_.size(); ++s)
        if (slot_pkt_[s])
            collectPacket(table, slot_owner_[s]);
    savePacketTable(aw, table);

    // Per-router sections, identical field order to Router::save.
    for (int i = 0; i < n_; ++i) {
        aw.beginSection("router");
        for (int p = 0; p < P_; ++p) {
            aw.putI64(ports_[pi(i, p)].ip_sa_rr);
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                const InVc &ivc = in_vc_[x];
                aw.putU8(ivc.state);
                aw.putI64(ivc.out_port);
                aw.putI64(ivc.out_vc);
                aw.putU8(ivc.out_class);
                aw.putU8(ivc.out_dim);
                aw.putU64(ivc.fifo_size);
                for (std::uint16_t k = 0; k < ivc.fifo_size; ++k) {
                    std::uint32_t s = ivc.fifo_head + k;
                    if (s >= static_cast<std::uint32_t>(D_))
                        s -= D_;
                    saveSoaFlit(aw, fifo_[x * D_ + s]);
                }
            }
        }
        for (int p = 0; p < P_; ++p) {
            aw.putI64(ports_[pi(i, p)].op_sa_rr);
            aw.putU64(C_);
            for (int c = 0; c < C_; ++c)
                aw.putI64(op_va_rr_[pi(i, p) * C_ + c]);
            for (int v = 0; v < V_; ++v) {
                const OutVc &o = out_vc_[vi(i, p, v)];
                aw.putBool(o.busy != 0);
                aw.putI64(o.credits);
            }
        }
        aw.endSection();
    }

    // Per-NIC sections, identical field order to Nic::save.
    for (int i = 0; i < n_; ++i) {
        if (!completed_[i].empty())
            panic("nic", i, ": checkpoint with undrained completions");
        aw.beginSection("nic");
        for (int v = 0; v < num_vnets; ++v) {
            std::size_t x = static_cast<std::size_t>(i) * num_vnets + v;
            aw.putI64(nicq_cur_vc_[x]);
            const FlitRing &q = nicq_[x];
            aw.putU64(q.size);
            for (std::uint32_t k = 0; k < q.size; ++k)
                saveSoaFlit(aw, q.at(k));
        }
        for (int v = 0; v < V_; ++v) {
            std::size_t x = static_cast<std::size_t>(i) * V_ + v;
            aw.putBool(inj_busy_[x] != 0);
            aw.putI64(inj_credits_[x]);
        }
        for (int v = 0; v < num_vnets; ++v)
            aw.putI64(
                nic_va_rr_[static_cast<std::size_t>(i) * num_vnets +
                           v]);
        aw.putI64(nic_rr_vnet_[i]);
        aw.putU64(nic_queued_[i]);
        aw.putU64(rx_[i].size());
        for (const auto &[id, count] : rx_[i]) {
            aw.putU64(id);
            aw.putU32(count);
        }
        aw.endSection();
    }

    // Per-link sections, identical field order to Link::save.
    for (const SoaLink &l : links_) {
        aw.beginSection("link");
        aw.putU64(l.fsize);
        for (std::uint32_t k = 0; k < l.fsize; ++k) {
            const TimedFlit &tf = l.flits[(l.fhead + k) & (l.cap - 1)];
            aw.putU64(tf.cycle);
            saveSoaFlit(aw, tf.flit);
        }
        aw.putU64(l.csize);
        for (std::uint32_t k = 0; k < l.csize; ++k) {
            const TimedCredit &tc =
                l.credits[(l.chead + k) & (l.cap - 1)];
            aw.putU64(tc.cycle);
            aw.putI64(tc.vc);
        }
        aw.endSection();
    }
}

void
SoaCycleFabric::restore(ArchiveReader &ar)
{
    // Rebuild the slot table from the packet table, one slot per
    // packet in id order.
    PacketTable table = restorePacketTable(ar);
    slot_owner_.clear();
    slot_pkt_.clear();
    free_slots_.clear();
    FlatMap<PacketId, std::uint32_t> slot_of;
    slot_of.reserve(table.size());
    for (const auto &[id, pkt] : table) {
        slot_of.emplace(id, static_cast<std::uint32_t>(slot_owner_.size()));
        slot_owner_.push_back(pkt);
        slot_pkt_.push_back(pkt.get());
    }

    for (int i = 0; i < n_; ++i) {
        ar.expectSection("router");
        for (int p = 0; p < P_; ++p) {
            ports_[pi(i, p)].ip_sa_rr = getPointer(ar, V_, "input SA");
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                InVc &ivc = in_vc_[x];
                ivc.state = ar.getU8();
                ivc.out_port = static_cast<std::int16_t>(ar.getI64());
                ivc.out_vc = static_cast<std::int16_t>(ar.getI64());
                ivc.out_class = ar.getU8();
                ivc.out_dim = ar.getU8();
                std::uint64_t sz = ar.getU64();
                if (sz > static_cast<std::uint64_t>(D_))
                    panic("soa restore: fifo larger than "
                          "buffer_depth");
                ivc.fifo_head = 0;
                ivc.fifo_size = static_cast<std::uint16_t>(sz);
                for (std::uint64_t k = 0; k < sz; ++k)
                    fifo_[x * D_ + k] = restoreSoaFlit(ar, slot_of);
            }
        }
        for (int p = 0; p < P_; ++p) {
            ports_[pi(i, p)].op_sa_rr = getPointer(ar, P_, "output SA");
            std::uint64_t n_rr = ar.getU64();
            if (n_rr != static_cast<std::uint64_t>(C_))
                panic("router ", i, ": VA arbiter shape mismatch");
            for (int c = 0; c < C_; ++c)
                op_va_rr_[pi(i, p) * C_ + c] =
                    getPointer(ar, params_.vcs_per_vnet, "VA");
            for (int v = 0; v < V_; ++v) {
                OutVc &o = out_vc_[vi(i, p, v)];
                o.busy = ar.getBool() ? 1 : 0;
                o.credits = static_cast<std::int32_t>(ar.getI64());
            }
        }
        ar.endSection();
    }

    for (int i = 0; i < n_; ++i) {
        ar.expectSection("nic");
        for (int v = 0; v < num_vnets; ++v) {
            std::size_t x = static_cast<std::size_t>(i) * num_vnets + v;
            nicq_cur_vc_[x] = static_cast<std::int32_t>(ar.getI64());
            FlitRing &q = nicq_[x];
            q.head = 0;
            q.size = 0;
            std::uint64_t sz = ar.getU64();
            for (std::uint64_t k = 0; k < sz; ++k)
                q.push(restoreSoaFlit(ar, slot_of));
        }
        for (int v = 0; v < V_; ++v) {
            std::size_t x = static_cast<std::size_t>(i) * V_ + v;
            inj_busy_[x] = ar.getBool() ? 1 : 0;
            inj_credits_[x] = static_cast<std::int32_t>(ar.getI64());
        }
        for (int v = 0; v < num_vnets; ++v)
            nic_va_rr_[static_cast<std::size_t>(i) * num_vnets + v] =
                getPointer(ar, params_.vcs_per_vnet, "NIC VA");
        nic_rr_vnet_[i] = getPointer(ar, num_vnets, "NIC vnet");
        nic_queued_[i] = ar.getU64();
        rx_[i].clear();
        std::uint64_t n_rx = ar.getU64();
        for (std::uint64_t k = 0; k < n_rx; ++k) {
            PacketId id = ar.getU64();
            rx_[i][id] = ar.getU32();
        }
        completed_[i].clear();
        freed_[i].clear();
        done_[i] = 0;
        ar.endSection();
    }
    completed_nodes_.clear();

    for (SoaLink &l : links_) {
        ar.expectSection("link");
        l.fhead = 0;
        std::uint64_t nf = ar.getU64();
        if (nf > l.cap)
            panic("soa restore: link flit ring overflow");
        l.fsize = static_cast<std::uint32_t>(nf);
        for (std::uint64_t k = 0; k < nf; ++k) {
            l.flits[k].cycle = ar.getU64();
            l.flits[k].flit = restoreSoaFlit(ar, slot_of);
        }
        l.chead = 0;
        std::uint64_t nc = ar.getU64();
        if (nc > l.cap)
            panic("soa restore: link credit ring overflow");
        l.csize = static_cast<std::uint32_t>(nc);
        for (std::uint64_t k = 0; k < nc; ++k) {
            l.credits[k].cycle = ar.getU64();
            l.credits[k].vc = static_cast<std::int16_t>(ar.getI64());
        }
        ar.endSection();
    }

    rebuildOccupancy();
}

void
SoaCycleFabric::rebuildOccupancy()
{
    std::fill(compute_occ_.begin(), compute_occ_.end(), 0);
    std::fill(commit_occ_.begin(), commit_occ_.end(), 0);
    for (int i = 0; i < n_; ++i) {
        std::uint32_t buffered = 0;
        for (int p = 0; p < P_; ++p) {
            Port &port = ports_[pi(i, p)];
            port.nonempty = 0;
            port.needva = 0;
            for (int v = 0; v < V_; ++v) {
                const InVc &ivc = in_vc_[vi(i, p, v)];
                buffered += ivc.fifo_size;
                if (ivc.fifo_size > 0)
                    port.nonempty |= 1u << v;
                if (ivc.state == vc_need_va)
                    port.needva |= 1u << v;
            }
        }
        compute_occ_[static_cast<std::size_t>(i) * compute_words +
                     occ_buffered] = buffered;
        std::uint32_t queued = 0;
        for (int v = 0; v < num_vnets; ++v)
            queued +=
                nicq_[static_cast<std::size_t>(i) * num_vnets + v]
                    .size;
        compute_occ_[static_cast<std::size_t>(i) * compute_words +
                     occ_nic_queued] = queued;
    }
    for (SoaLink &l : links_) {
        *l.flit_occ += l.fsize;
        *l.cred_occ += l.csize;
    }
    std::fill(deltas_.begin(), deltas_.end(), StatDeltas{});
}

std::unique_ptr<CycleFabric>
makeCycleFabric(stats::Group *parent, const NocParams &params,
                const Topology &topo, const RoutingAlgorithm &routing)
{
    return std::make_unique<SoaCycleFabric>(parent, params, topo, routing);
}

} // namespace kernel
} // namespace noc
} // namespace rasim
