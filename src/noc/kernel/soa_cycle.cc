#include "noc/kernel/soa_cycle.hh"

#include <bit>

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
    std::vector<Flit> nb(ncap);
    for (std::uint32_t k = 0; k < size; ++k)
        nb[k] = std::move(buf[(head + k) & (old - 1)]);
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
        fatal("network.kernel=soa supports at most ", max_ports,
              " ports per router; topology '", topo.name(), "' has ",
              P_);
    if (V_ > max_vcs)
        fatal("network.kernel=soa supports at most ", max_vcs,
              " VCs per port (got ", V_, " = ", num_vnets,
              " vnets x ", params_.vc_classes, " classes x ",
              params_.vcs_per_vnet, " vcs_per_vnet); use "
              "network.kernel=object");
    if (D_ > 65535)
        fatal("network.kernel=soa supports buffer_depth up to 65535 "
              "(got ", D_, "); use network.kernel=object");

    simd_ = cpuid::resolveSimdLevel(params_.simd);
    scan_ = activeScanFor(simd_);

    // Stats tree: router/NIC groups interleaved in node order, the
    // exact child order the object backend creates, so stats archives
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
    ivc_state_.assign(npv, vc_idle);
    ivc_out_port_.assign(npv, -1);
    ivc_out_vc_.assign(npv, -1);
    ivc_out_class_.assign(npv, 0);
    ivc_out_dim_.assign(npv, 2);
    fifo_.assign(npv * D_, Flit{});
    fifo_head_.assign(npv, 0);
    fifo_size_.assign(npv, 0);
    nonempty_.assign(np, 0);
    needva_.assign(np, 0);
    ip_sa_rr_.assign(np, 0);
    op_sa_rr_.assign(np, 0);
    op_va_rr_.assign(np * C_, 0);
    ovc_busy_.assign(npv, 0);
    ovc_credits_.assign(npv, 0);
    in_link_.assign(np, -1);
    out_link_.assign(np, -1);

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
    rx_.resize(n_);
    completed_.resize(n_);

    compute_occ_.assign(static_cast<std::size_t>(n_) * compute_words,
                        0);
    commit_occ_.assign(static_cast<std::size_t>(n_) * commit_words, 0);
    compute_list_.reserve(n_);
    commit_list_.reserve(n_);
    route_scratch_.resize(n_);
    for (auto &s : route_scratch_)
        s.reserve(8);

    d_flits_routed_.assign(n_, 0);
    d_buffer_writes_.assign(n_, 0);
    d_link_traversals_.assign(n_, 0);
    d_flits_sent_.assign(n_, 0);
    d_flits_received_.assign(n_, 0);

    // Links in the object backend's creation order (the archive link
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
            out_link_[pi(i, p)] = id;
            in_link_[pi(j, q)] = id;
            // connectOutput: initial credits = downstream depth.
            for (int v = 0; v < V_; ++v)
                ovc_credits_[vi(i, p, v)] = params_.buffer_depth;
        }
    }
    for (int i = 0; i < n_; ++i) {
        std::int32_t inj = add_link(
            1,
            &commit_occ_[static_cast<std::size_t>(i) * commit_words +
                         port_local],
            &compute_occ_[static_cast<std::size_t>(i) * compute_words +
                          occ_inj_credits]);
        in_link_[pi(i, port_local)] = inj;

        std::int32_t ej = add_link(
            1,
            &commit_occ_[static_cast<std::size_t>(i) * commit_words +
                         occ_ej_flits],
            &commit_occ_[static_cast<std::size_t>(i) * commit_words +
                         occ_out_credit_base + port_local]);
        out_link_[pi(i, port_local)] = ej;
        for (int v = 0; v < V_; ++v)
            ovc_credits_[vi(i, port_local, v)] = params_.buffer_depth;
    }
}

std::string
SoaCycleFabric::description() const
{
    return std::string("soa (simd=") + cpuid::simdLevelName(simd_) +
           ")";
}

void
SoaCycleFabric::pushFlit(SoaLink &l, Cycle now, Flit f)
{
    if (l.fsize >= l.cap)
        panic("soa link: flit ring overflow "
              "(credit protocol violated)");
    TimedFlit &slot = l.flits[(l.fhead + l.fsize) & (l.cap - 1)];
    slot.cycle = now + l.latency - 1;
    slot.flit = std::move(f);
    ++l.fsize;
    ++*l.flit_occ;
}

Flit
SoaCycleFabric::popFlit(SoaLink &l)
{
    Flit f = std::move(l.flits[l.fhead].flit);
    l.fhead = (l.fhead + 1) & (l.cap - 1);
    --l.fsize;
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
    l.chead = (l.chead + 1) & (l.cap - 1);
    --l.csize;
    --*l.cred_occ;
    return vc;
}

void
SoaCycleFabric::enqueue(std::size_t node, const PacketPtr &pkt,
                        Cycle now)
{
    (void)now;
    std::uint32_t nflits = params_.flitsPerPacket(pkt->size_bytes);
    auto vnet = static_cast<std::uint8_t>(pkt->cls);
    FlitRing &q = nicq_[node * num_vnets + vnet];
    for (std::uint32_t i = 0; i < nflits; ++i) {
        Flit f;
        if (nflits == 1)
            f.type = Flit::Type::HeadTail;
        else if (i == 0)
            f.type = Flit::Type::Head;
        else if (i == nflits - 1)
            f.type = Flit::Type::Tail;
        else
            f.type = Flit::Type::Body;
        f.vnet = vnet;
        f.seq = static_cast<std::uint16_t>(i);
        f.pkt = pkt;
        q.push(std::move(f));
    }
    nic_queued_[node] += nflits;
    compute_occ_[node * compute_words + occ_nic_queued] += nflits;
}

void
SoaCycleFabric::nicCompute(int i, Cycle now)
{
    // Credits from the router (input buffer slots freed).
    SoaLink &inj = links_[in_link_[pi(i, port_local)]];
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
        Flit &front = q.front();
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
            front.pkt->enter_tick = now;
        } else if (vc < 0 ||
                   inj_credits_[static_cast<std::size_t>(i) * V_ +
                                vc] <= 0) {
            continue; // streaming body flits but out of credits
        }

        Flit f = q.pop();
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
        pushFlit(inj, now, std::move(f));
        ++d_flits_sent_[i];
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
SoaCycleFabric::nextVcClass(int i, const Flit &head, int out_port) const
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
SoaCycleFabric::selectOutputPort(int i, const Flit &head,
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
            std::size_t x = vi(i, port, vc);
            if (!ovc_busy_[x])
                credits += ovc_credits_[x];
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
        std::size_t x = vi(i, out_port, vc);
        if (!ovc_busy_[x]) {
            ovc_busy_[x] = 1;
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
        std::uint32_t need = needva_[pp];
        if (need == 0)
            continue;
        if (need & ~nonempty_[pp])
            panic("router", i, ": NeedVA VC with empty fifo");
        for (; need != 0; need &= need - 1) {
            int v = std::countr_zero(need);
            std::size_t x = pp * V_ + v;
            const Flit &head = fifo_[x * D_ + fifo_head_[x]];
            if (!head.isHead())
                panic("router", i, ": NeedVA VC fronted by body flit");
            auto &scratch = route_scratch_[i];
            scratch.clear();
            routing_.route(topo_, i, head.pkt->dst, scratch);
            int out_port = selectOutputPort(i, head, scratch, p);
            std::uint8_t cls = nextVcClass(i, head, out_port);
            int out_vc = allocateOutVc(i, out_port, head.vnet, cls);
            if (out_vc < 0)
                continue; // retry next cycle
            ivc_state_[x] = vc_active;
            needva_[pp] &= ~(1u << v);
            ivc_out_port_[x] = static_cast<std::int16_t>(out_port);
            ivc_out_vc_[x] = static_cast<std::int16_t>(out_vc);
            ivc_out_class_[x] = cls;
            ivc_out_dim_[x] = dimOf(out_port);
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
        if (ivc_state_[x] != vc_active)
            continue;
        if (fifo_[x * D_ + fifo_head_[x]].ready_cycle > now)
            continue;
        if (ovc_credits_[vi(i, ivc_out_port_[x], ivc_out_vc_[x])] <= 0)
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
    // its active VCs round-robin from ip_sa_rr_ (upper bits first,
    // then the wrapped lower bits), and files a request with that
    // VC's output port.
    for (int p = 0; p < P_; ++p) {
        std::size_t pp = pi(i, p);
        std::uint32_t cand = nonempty_[pp] & ~needva_[pp];
        if (cand == 0)
            continue;
        int rr = ip_sa_rr_[pp];
        int v = firstReadyVc(i, pp, bitsFrom(cand, rr), now);
        if (v < 0)
            v = firstReadyVc(i, pp, bitsBelow(cand, rr), now);
        if (v < 0)
            continue;
        winner[p] = v;
        int op = ivc_out_port_[pp * V_ + v];
        out_ports |= 1u << op;
        requests[op] |= 1u << p;
    }

    // Output stage: each requested output port grants one input port,
    // round-robin from op_sa_rr_. Every input port requests at most
    // one output port, so grants never contend with each other.
    for (; out_ports != 0; out_ports &= out_ports - 1) {
        int op = std::countr_zero(out_ports);
        std::int32_t out_id = out_link_[pi(i, op)];
        if (out_id < 0)
            continue;
        std::uint32_t req = requests[op];
        std::uint32_t hi = bitsFrom(req, op_sa_rr_[pi(i, op)]);
        int granted = std::countr_zero(hi != 0 ? hi : req);
        op_sa_rr_[pi(i, op)] = wrapInc(granted, P_);

        // Switch + link traversal for the granted flit.
        int v = winner[granted];
        std::size_t gp = pi(i, granted);
        std::size_t x = gp * V_ + v;
        ip_sa_rr_[gp] = wrapInc(v, V_);
        Flit f = std::move(fifo_[x * D_ + fifo_head_[x]]);
        std::uint16_t h = static_cast<std::uint16_t>(fifo_head_[x] + 1);
        fifo_head_[x] = h == D_ ? 0 : h;
        if (--fifo_size_[x] == 0)
            nonempty_[gp] &= ~(1u << v);
        --compute_occ_[static_cast<std::size_t>(i) * compute_words +
                       occ_buffered];
        int out_vc = ivc_out_vc_[x];
        f.vc = static_cast<std::int8_t>(out_vc);
        f.vc_class = ivc_out_class_[x];
        if (op != port_local) {
            f.last_dim = ivc_out_dim_[x];
            ++d_link_traversals_[i];
            if (f.isHead())
                ++f.pkt->hops;
        }
        --ovc_credits_[vi(i, op, out_vc)];
        ++d_flits_routed_[i];

        bool was_tail = f.isTail();
        pushFlit(links_[out_id], now, std::move(f));

        // Return the freed buffer slot to the upstream sender.
        std::int32_t in_id = in_link_[gp];
        if (in_id >= 0)
            pushCredit(links_[in_id], now, v);

        if (was_tail) {
            ovc_busy_[vi(i, op, out_vc)] = 0;
            ivc_out_port_[x] = -1;
            ivc_out_vc_[x] = -1;
            if (fifo_size_[x] == 0) {
                ivc_state_[x] = vc_idle;
            } else {
                if (!fifo_[x * D_ + fifo_head_[x]].isHead())
                    panic("router", i,
                          ": tail departed but next flit is not a "
                          "head");
                ivc_state_[x] = vc_need_va;
                needva_[gp] |= 1u << v;
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
        std::int32_t in_id = in_link_[pi(i, p)];
        if (in_id < 0)
            continue;
        SoaLink &l = links_[in_id];
        while (flitReady(l, now)) {
            Flit f = popFlit(l);
            if (f.vc < 0 || f.vc >= V_)
                panic("router", i, ": flit with unallocated VC");
            std::size_t x = vi(i, p, f.vc);
            if (fifo_size_[x] >= D_)
                panic("router", i, " port ", portName(p), " vc ",
                      static_cast<int>(f.vc),
                      ": buffer overflow (credit protocol violated)");
            f.ready_cycle = now + params_.pipeline_stages;
            ++d_buffer_writes_[i];
            bool was_empty = fifo_size_[x] == 0;
            bool is_head = f.isHead();
            std::uint32_t bit = 1u << f.vc;
            std::uint16_t slot =
                static_cast<std::uint16_t>(fifo_head_[x] +
                                           fifo_size_[x]);
            if (slot >= D_)
                slot = static_cast<std::uint16_t>(slot - D_);
            fifo_[x * D_ + slot] = std::move(f);
            ++fifo_size_[x];
            nonempty_[pi(i, p)] |= bit;
            ++compute_occ_[static_cast<std::size_t>(i) *
                               compute_words +
                           occ_buffered];
            if (ivc_state_[x] == vc_idle) {
                if (!was_empty || !is_head)
                    panic("router", i,
                          ": idle VC must receive a head flit first");
                ivc_state_[x] = vc_need_va;
                needva_[pi(i, p)] |= bit;
            }
        }
    }
    for (int p = 0; p < P_; ++p) {
        if (occ[occ_out_credit_base + p] == 0)
            continue;
        std::int32_t out_id = out_link_[pi(i, p)];
        if (out_id < 0)
            continue;
        SoaLink &l = links_[out_id];
        while (creditReady(l, now))
            ++ovc_credits_[vi(i, p, popCredit(l))];
    }
}

void
SoaCycleFabric::nicCommit(int i, Cycle now)
{
    SoaLink &ej = links_[out_link_[pi(i, port_local)]];
    while (flitReady(ej, now)) {
        Flit f = popFlit(ej);
        // The ejection buffer drains instantly: return the credit for
        // the slot right away.
        pushCredit(ej, now, f.vc);
        ++d_flits_received_[i];
        PacketPtr pkt = f.pkt;
        std::uint32_t want = params_.flitsPerPacket(pkt->size_bytes);
        std::uint32_t got = ++rx_[i][pkt->id];
        if (got == want) {
            rx_[i].erase(pkt->id);
            pkt->deliver_tick = now + 1;
            completed_[i].push_back(std::move(pkt));
        } else if (got > want) {
            panic("nic", i, ": duplicate flits for packet ", pkt->id);
        }
    }
}

void
SoaCycleFabric::flushNodeStats(int i)
{
    // Counters are integer-valued and far below 2^53, so a batched
    // double add lands on the same value as the object backend's
    // per-event increments.
    if (d_flits_routed_[i]) {
        router_stats_[i]->flitsRouted +=
            static_cast<double>(d_flits_routed_[i]);
        d_flits_routed_[i] = 0;
    }
    if (d_buffer_writes_[i]) {
        router_stats_[i]->bufferWrites +=
            static_cast<double>(d_buffer_writes_[i]);
        d_buffer_writes_[i] = 0;
    }
    if (d_link_traversals_[i]) {
        router_stats_[i]->linkTraversals +=
            static_cast<double>(d_link_traversals_[i]);
        d_link_traversals_[i] = 0;
    }
    if (d_flits_sent_[i]) {
        nic_stats_[i]->flitsSent +=
            static_cast<double>(d_flits_sent_[i]);
        d_flits_sent_[i] = 0;
    }
    if (d_flits_received_[i]) {
        nic_stats_[i]->flitsReceived +=
            static_cast<double>(d_flits_received_[i]);
        d_flits_received_[i] = 0;
    }
}

void
SoaCycleFabric::compute(StepEngine &engine, Cycle now,
                        const std::vector<char> &stalled)
{
    compute_list_.clear();
    scan_(compute_occ_.data(), n_, compute_words, compute_list_);
    if (compute_list_.empty())
        return;
    phase_now_ = now;
    phase_va_start_ = static_cast<int>(now % P_);
    phase_stalled_ = &stalled;
    engine.forRange(
        compute_list_.size(), [this](std::size_t b, std::size_t e) {
            Cycle now = phase_now_;
            const std::vector<char> &stalled = *phase_stalled_;
            for (std::size_t k = b; k < e; ++k) {
                int i = compute_list_[k];
                nicCompute(i, now);
                if (!stalled[i]) {
                    routerComputeVa(i);
                    routerComputeSa(i, now);
                }
            }
        });
}

void
SoaCycleFabric::commit(StepEngine &engine, Cycle now,
                       const std::vector<char> &stalled)
{
    commit_list_.clear();
    scan_(commit_occ_.data(), n_, commit_words, commit_list_);
    if (!commit_list_.empty()) {
        phase_now_ = now;
        phase_stalled_ = &stalled;
        engine.forRange(
            commit_list_.size(), [this](std::size_t b, std::size_t e) {
                Cycle now = phase_now_;
                const std::vector<char> &stalled = *phase_stalled_;
                for (std::size_t k = b; k < e; ++k) {
                    int i = commit_list_[k];
                    if (!stalled[i])
                        routerCommit(i, now);
                    nicCommit(i, now);
                }
            });
    }
    // Sequential post-barrier stat flush: only nodes visited this
    // cycle can hold non-zero deltas; flushing is idempotent, so a
    // node on both lists is fine.
    for (int i : compute_list_)
        flushNodeStats(i);
    for (int i : commit_list_)
        flushNodeStats(i);
}

std::vector<PacketPtr> &
SoaCycleFabric::completed(std::size_t node)
{
    return completed_[node];
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
SoaCycleFabric::save(ArchiveWriter &aw) const
{
    // Packet table: same collection set (and the table orders by id),
    // so the bytes match the object backend.
    PacketTable table;
    for (int i = 0; i < n_; ++i)
        for (int p = 0; p < P_; ++p)
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                for (std::uint16_t k = 0; k < fifo_size_[x]; ++k) {
                    std::uint32_t s = fifo_head_[x] + k;
                    if (s >= static_cast<std::uint32_t>(D_))
                        s -= D_;
                    collectPacket(table, fifo_[x * D_ + s].pkt);
                }
            }
    for (int i = 0; i < n_; ++i)
        for (int v = 0; v < num_vnets; ++v) {
            const FlitRing &q =
                nicq_[static_cast<std::size_t>(i) * num_vnets + v];
            for (std::uint32_t k = 0; k < q.size; ++k)
                collectPacket(table, q.at(k).pkt);
        }
    for (const SoaLink &l : links_)
        for (std::uint32_t k = 0; k < l.fsize; ++k)
            collectPacket(
                table, l.flits[(l.fhead + k) & (l.cap - 1)].flit.pkt);
    savePacketTable(aw, table);

    // Per-router sections, identical field order to Router::save.
    for (int i = 0; i < n_; ++i) {
        aw.beginSection("router");
        for (int p = 0; p < P_; ++p) {
            aw.putI64(ip_sa_rr_[pi(i, p)]);
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                aw.putU8(ivc_state_[x]);
                aw.putI64(ivc_out_port_[x]);
                aw.putI64(ivc_out_vc_[x]);
                aw.putU8(ivc_out_class_[x]);
                aw.putU8(ivc_out_dim_[x]);
                aw.putU64(fifo_size_[x]);
                for (std::uint16_t k = 0; k < fifo_size_[x]; ++k) {
                    std::uint32_t s = fifo_head_[x] + k;
                    if (s >= static_cast<std::uint32_t>(D_))
                        s -= D_;
                    saveFlit(aw, fifo_[x * D_ + s]);
                }
            }
        }
        for (int p = 0; p < P_; ++p) {
            aw.putI64(op_sa_rr_[pi(i, p)]);
            aw.putU64(C_);
            for (int c = 0; c < C_; ++c)
                aw.putI64(op_va_rr_[pi(i, p) * C_ + c]);
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                aw.putBool(ovc_busy_[x] != 0);
                aw.putI64(ovc_credits_[x]);
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
                saveFlit(aw, q.at(k));
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
            saveFlit(aw, tf.flit);
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
    PacketTable table = restorePacketTable(ar);

    for (int i = 0; i < n_; ++i) {
        ar.expectSection("router");
        for (int p = 0; p < P_; ++p) {
            ip_sa_rr_[pi(i, p)] = getPointer(ar, V_, "input SA");
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                ivc_state_[x] = ar.getU8();
                ivc_out_port_[x] =
                    static_cast<std::int16_t>(ar.getI64());
                ivc_out_vc_[x] =
                    static_cast<std::int16_t>(ar.getI64());
                ivc_out_class_[x] = ar.getU8();
                ivc_out_dim_[x] = ar.getU8();
                std::uint64_t sz = ar.getU64();
                if (sz > static_cast<std::uint64_t>(D_))
                    panic("soa restore: fifo larger than "
                          "buffer_depth");
                fifo_head_[x] = 0;
                fifo_size_[x] = static_cast<std::uint16_t>(sz);
                for (std::uint64_t k = 0; k < sz; ++k)
                    fifo_[x * D_ + k] = restoreFlit(ar, table);
            }
        }
        for (int p = 0; p < P_; ++p) {
            op_sa_rr_[pi(i, p)] = getPointer(ar, P_, "output SA");
            std::uint64_t n_rr = ar.getU64();
            if (n_rr != static_cast<std::uint64_t>(C_))
                panic("router ", i, ": VA arbiter shape mismatch");
            for (int c = 0; c < C_; ++c)
                op_va_rr_[pi(i, p) * C_ + c] =
                    getPointer(ar, params_.vcs_per_vnet, "VA");
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                ovc_busy_[x] = ar.getBool() ? 1 : 0;
                ovc_credits_[x] =
                    static_cast<std::int32_t>(ar.getI64());
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
                q.push(restoreFlit(ar, table));
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
        ar.endSection();
    }

    for (SoaLink &l : links_) {
        ar.expectSection("link");
        l.fhead = 0;
        std::uint64_t nf = ar.getU64();
        if (nf > l.cap)
            panic("soa restore: link flit ring overflow");
        l.fsize = static_cast<std::uint32_t>(nf);
        for (std::uint64_t k = 0; k < nf; ++k) {
            l.flits[k].cycle = ar.getU64();
            l.flits[k].flit = restoreFlit(ar, table);
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
            std::uint32_t nonempty = 0, needva = 0;
            for (int v = 0; v < V_; ++v) {
                std::size_t x = vi(i, p, v);
                buffered += fifo_size_[x];
                if (fifo_size_[x] > 0)
                    nonempty |= 1u << v;
                if (ivc_state_[x] == vc_need_va)
                    needva |= 1u << v;
            }
            nonempty_[pi(i, p)] = nonempty;
            needva_[pi(i, p)] = needva;
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
    compute_list_.clear();
    commit_list_.clear();
    std::fill(d_flits_routed_.begin(), d_flits_routed_.end(), 0);
    std::fill(d_buffer_writes_.begin(), d_buffer_writes_.end(), 0);
    std::fill(d_link_traversals_.begin(), d_link_traversals_.end(), 0);
    std::fill(d_flits_sent_.begin(), d_flits_sent_.end(), 0);
    std::fill(d_flits_received_.begin(), d_flits_received_.end(), 0);
}

} // namespace kernel
} // namespace noc
} // namespace rasim
