#include "noc/remote/remote_network.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "ipc/faulty_transport.hh"
#include "ipc/frame.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace noc
{
namespace remote
{

namespace
{

/** Rng stream of the retry policy's jitter draws. */
constexpr std::uint64_t rng_stream_retry = 0x7274;

} // namespace

RemoteOptions
RemoteOptions::fromConfig(const Config &cfg)
{
    RemoteOptions o;
    o.socket = cfg.getString("remote.socket", o.socket);
    o.connect_timeout_ms =
        cfg.getDouble("remote.connect_timeout_ms", o.connect_timeout_ms);
    o.quantum_timeout_ms =
        cfg.getDouble("remote.quantum_timeout_ms", o.quantum_timeout_ms);
    o.model = cfg.getString("remote.model", o.model);
    o.engine_workers =
        static_cast<int>(cfg.getUInt("remote.engine_workers", 0));

    // Failover set: a comma-separated endpoint list overrides the
    // single remote.socket address (and becomes the primary).
    std::string eps = cfg.getString("network.remote.endpoints", "");
    if (!eps.empty()) {
        o.endpoints.clear();
        std::size_t pos = 0;
        while (pos <= eps.size()) {
            std::size_t comma = eps.find(',', pos);
            std::string ep =
                comma == std::string::npos
                    ? eps.substr(pos)
                    : eps.substr(pos, comma - pos);
            while (!ep.empty() && (ep.front() == ' ' || ep.front() == '\t'))
                ep.erase(ep.begin());
            while (!ep.empty() && (ep.back() == ' ' || ep.back() == '\t'))
                ep.pop_back();
            if (!ep.empty())
                o.endpoints.push_back(ep);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (o.endpoints.empty())
            fatal("network.remote.endpoints: no usable address in '",
                  eps, "'");
        o.socket = o.endpoints.front();
    }
    o.ckpt_quanta =
        cfg.getUInt("network.remote.ckpt_quanta", o.ckpt_quanta);
    o.attest_quanta =
        cfg.getUInt("network.remote.attest_quanta", o.attest_quanta);
    o.registry = cfg.getString("network.remote.registry", o.registry);
    o.retry = ipc::RetryOptions::fromConfig(cfg);
    o.fault = TransportFaultOptions::fromConfig(cfg);

    if (!ipc::validAddress(o.socket))
        fatal("remote.socket: unusable address '", o.socket, "'");
    for (const std::string &ep : o.endpoints) {
        if (!ipc::validAddress(ep))
            fatal("network.remote.endpoints: unusable address '", ep,
                  "'");
    }
    if (o.connect_timeout_ms <= 0.0)
        fatal("remote.connect_timeout_ms must be positive");
    if (o.quantum_timeout_ms < 0.0)
        fatal("remote.quantum_timeout_ms must be non-negative");
    if (o.model != "cycle" && o.model != "deflection")
        fatal("remote.model must be cycle or deflection, not '",
              o.model, "'");
    if (o.engine_workers < 0)
        fatal("remote.engine_workers must be non-negative");
    return o;
}

RemoteNetwork::RemoteNetwork(Simulation &sim, const std::string &name,
                             const NocParams &params,
                             RemoteOptions options, SimObject *parent)
    : SimObject(sim, name, parent),
      packetsInjected(this, "packets_injected",
                      "packets handed to the network"),
      packetsDelivered(this, "packets_delivered",
                       "packets fully received"),
      totalLatency(this, "total_latency",
                   "inject-to-deliver latency (cycles)"),
      networkLatency(this, "network_latency",
                     "fabric enter-to-deliver latency (cycles)"),
      queueLatency(this, "queue_latency",
                   "source queueing latency (cycles)"),
      hopCount(this, "hop_count", "router-to-router hops per packet"),
      rpcRoundTrips(this, "rpc_round_trips",
                    "quantum RPC round-trips completed"),
      elidedQuanta(this, "elided_quanta",
                   "idle quanta served without touching the wire"),
      specHits(this, "spec_hits", "retired counter, always 0"),
      specRebases(this, "spec_rebases", "retired counter, always 0"),
      schedThrottles(this, "sched_throttles",
                     "replies delayed by the server's fair scheduler"),
      health(this, "health"),
      reconnects(&health, "reconnects",
                 "sessions re-opened after a connection loss"),
      retries(&health, "retries",
              "transport attempts re-run after a backoff"),
      failovers(&health, "failovers",
                "sessions moved to a different endpoint"),
      backoffMsTotal(&health, "backoff_ms_total",
                     "wall-clock milliseconds slept in retry backoffs"),
      breakerTrips(&health, "breaker_trips",
                   "circuit breaker openings (exhausted retry rounds)"),
      standbyPrimeFailures(&health, "standby_prime_failures",
                           "retired counter, always 0"),
      reprimes(&health, "reprimes", "retired counter, always 0"),
      heartbeatMisses(&health, "heartbeat_misses",
                      "retired counter, always 0"),
      attestationMismatches(&health, "attestation_mismatches",
                            "replica state digests that diverged"),
      workerRestarts(&health, "worker_restarts",
                     "supervised worker restarts (registry mirror)"),
      params_(params), options_(std::move(options)),
      // Identical geometry to the bridge's reciprocal table, so the
      // server's shadow table and the bridge's table are comparable
      // entry for entry.
      table_proto_(params, params.columns + params.rows + 2,
                   sim.config().getDouble("abstract.ewma_alpha", 0.05),
                   sim.config().getString("abstract.granularity",
                                          "distance") == "pair"
                       ? abstractnet::LatencyTable::Granularity::Pair
                       : abstractnet::LatencyTable::Granularity::Distance,
                   params.numNodes())
{
    params_.validate();
    if (options_.endpoints.empty())
        options_.endpoints = {options_.socket};
    // One fault schedule and one retry policy for the object's whole
    // life: the draw sequences run across reconnects and failovers,
    // which is what makes a chaos run reproducible end to end.
    fault_sched_ = TransportFaultSchedule(options_.fault);
    retry_ = ipc::RetryPolicy(options_.retry,
                              sim.makeRng(rng_stream_retry));
    for (int v = 0; v < num_vnets; ++v) {
        vnetLatency.push_back(std::make_unique<stats::Distribution>(
            this, std::string("latency_vnet") + std::to_string(v),
            "total latency on vnet " + std::to_string(v)));
    }
    num_nodes_ = static_cast<std::uint64_t>(params_.numNodes());
    // A registry written before we started can already widen the
    // endpoint set; afterwards the breaker gets one scope per
    // endpoint, so one dead worker cannot trip the others' budgets.
    refreshRegistry();
    retry_.setScopes(options_.endpoints.size());
    runWithRetry([] { return 0; });
}

RemoteNetwork::~RemoteNetwork()
{
    if (!chan_ || !chan_->valid())
        return;
    try {
        ipc::sendMessage(*chan_, ipc::beginMessage(ipc::MsgType::Bye));
    } catch (const SimError &) {
        // Best-effort goodbye; the server treats EOF the same way.
    }
}

std::size_t
RemoteNetwork::numNodes() const
{
    return static_cast<std::size_t>(num_nodes_);
}

std::optional<NetworkModel::Accounting>
RemoteNetwork::accounting() const
{
    return acct_;
}

void
RemoteNetwork::requestAbort()
{
    abort_.store(true, std::memory_order_relaxed);
}

ipc::FaultyTransport *
RemoteNetwork::faultyChannel()
{
    return dynamic_cast<ipc::FaultyTransport *>(chan_.get());
}

void
RemoteNetwork::inject(const PacketPtr &pkt)
{
    // No IO here: injections buffer until the quantum boundary, so a
    // dead server cannot fail an inject() — every transport fault
    // surfaces inside advanceTo(), where the bridge's health machinery
    // catches backend errors.
    ++packetsInjected;
    pending_.push_back(pkt);
}

bool
RemoteNetwork::retryable(const SimError &err) const
{
    // An abort is the caller cancelling the operation; honouring it
    // beats masking it.
    if (abort_.load(std::memory_order_relaxed))
        return false;
    return err.kind() == ErrorKind::Transport ||
           err.kind() == ErrorKind::Timeout;
}

void
RemoteNetwork::syncHealthStats()
{
    retries.set(static_cast<double>(retry_.retries()));
    breakerTrips.set(static_cast<double>(retry_.breakerTrips()));
    backoffMsTotal.set(retry_.backoffMsTotal());
    workerRestarts.set(static_cast<double>(registry_restarts_));
}

void
RemoteNetwork::markDisconnected()
{
    // Only the connection dies; the recovery lineage (base image +
    // journal) stays, so a retry can rebuild the server state.
    chan_.reset();
}

void
RemoteNetwork::giveUp()
{
    // The retry round is exhausted: drop the whole lineage, reverting
    // to the pre-retry lossy semantics the bridge's quarantine is built
    // around. Buffered injections die with the server that would have
    // simulated them; a later re-engagement opens a fresh session from
    // an empty fabric at the current tick.
    journal_.clear();
    base_image_.clear();
    base_digest_ = 0;
    journal_base_ = cur_time_;
    quanta_since_base_ = 0;
    pending_.clear();
}

void
RemoteNetwork::rethrowPartingError(ipc::ByteChannel &ch,
                                   const SimError &send_err)
{
    // An AF_UNIX peer's close does not discard data it already wrote,
    // so an admission refusal sent just before the close is still
    // readable even though our own send got EPIPE.
    std::optional<ipc::Message> parting;
    try {
        parting = ipc::recvMessage(ch, 200.0, &abort_);
    } catch (const SimError &) {
        throw send_err;
    }
    if (parting && parting->type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(parting->ar);
    throw send_err;
}

ipc::Message
RemoteNetwork::expectReplyOn(ipc::ByteChannel &ch,
                             const std::string &addr, double timeout_ms)
{
    auto msg = ipc::recvMessage(ch, timeout_ms, &abort_);
    if (!msg) {
        throw SimError(ErrorKind::Transport,
                       "server '" + addr +
                           "' closed the connection mid-request");
    }
    return std::move(*msg);
}

ipc::Message
RemoteNetwork::expectReply(double timeout_ms)
{
    return expectReplyOn(*chan_, activeEndpoint(), timeout_ms);
}

std::unique_ptr<ipc::ByteChannel>
RemoteNetwork::openChannelTo(std::size_t ep, double timeout_ms)
{
    ipc::Fd fd = ipc::connectTo(options_.endpoints[ep], timeout_ms);
    std::unique_ptr<ipc::ByteChannel> ch =
        std::make_unique<ipc::FdChannel>(std::move(fd));
    if (options_.fault.enabled) {
        ch = std::make_unique<ipc::FaultyTransport>(std::move(ch),
                                                    &fault_sched_);
    }
    return ch;
}

ipc::HelloReply
RemoteNetwork::helloOn(ipc::ByteChannel &ch, const std::string &addr,
                       Tick start_tick)
{
    ipc::HelloRequest req;
    req.model = options_.model;
    req.params = params_;
    req.engine_workers = options_.engine_workers;
    req.start_tick = start_tick;
    req.table_alpha = table_proto_.alpha();
    req.table_pair_granularity =
        table_proto_.granularity() ==
        abstractnet::LatencyTable::Granularity::Pair;
    req.table_max_hops = table_proto_.maxHops();
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::Hello);
    ipc::encodeHello(aw, req);
    try {
        ipc::sendMessage(ch, std::move(aw));
    } catch (const SimError &e) {
        // The server can refuse admission and close before our Hello
        // lands; surface its typed refusal, not the EPIPE.
        rethrowPartingError(ch, e);
    }

    ipc::Message msg =
        expectReplyOn(ch, addr, options_.connect_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::HelloAck) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected HelloAck, got ") +
                           ipc::toString(msg.type));
    }
    ipc::HelloReply rep = ipc::decodeHelloReply(msg.ar);
    msg.done();
    return rep;
}

ipc::CkptLoadReply
RemoteNetwork::ckptLoadOn(ipc::ByteChannel &ch, const std::string &addr,
                          const std::string &image)
{
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::CkptLoad);
    aw.putString(image);
    ipc::sendMessage(ch, std::move(aw));
    ipc::Message msg =
        expectReplyOn(ch, addr, options_.quantum_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::CkptLoadAck) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected CkptLoadAck, got ") +
                           ipc::toString(msg.type));
    }
    ipc::CkptLoadReply rep = ipc::decodeCkptLoadReply(msg.ar);
    msg.done();
    return rep;
}

std::uint64_t
RemoteNetwork::refreshRegistry()
{
    const std::uint64_t all_up = ~std::uint64_t(0);
    if (options_.registry.empty())
        return all_up;
    std::ifstream in(options_.registry);
    if (!in)
        return all_up; // not written yet: trust the static list
    // Format (one worker per line, written atomically by
    // rasim-supervisor):
    //   rasim-registry v1
    //   worker <idx> <addr> <up|down> pid <pid> restarts <n>
    std::vector<std::string> addrs;
    std::uint64_t up_mask = 0;
    std::uint64_t restarts_total = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag != "worker")
            continue;
        std::uint64_t idx = 0;
        std::string addr, state, pid_tag, restarts_tag;
        std::uint64_t pid = 0, restarts = 0;
        ls >> idx >> addr >> state >> pid_tag >> pid >> restarts_tag >>
            restarts;
        if (!ls || addr.empty() || !ipc::validAddress(addr))
            continue;
        if (idx >= 64 || idx != addrs.size())
            continue; // torn or out-of-order line: keep what parses
        addrs.push_back(addr);
        if (state == "up")
            up_mask |= std::uint64_t(1) << idx;
        restarts_total += restarts;
    }
    if (addrs.empty())
        return all_up;
    registry_restarts_ = restarts_total;
    options_.endpoints = std::move(addrs);
    if (active_ep_ >= options_.endpoints.size())
        active_ep_ = 0;
    retry_.setScopes(options_.endpoints.size());
    syncHealthStats();
    return up_mask;
}

void
RemoteNetwork::coldOpen()
{
    // Under a supervisor the fleet may have moved since the failure:
    // re-resolve it, and learn which workers the supervisor believes
    // are up.
    const std::uint64_t up_mask = refreshRegistry();
    const std::size_t n = options_.endpoints.size();
    // Walk the ring from the active endpoint: the likely-healthy
    // endpoints (registry says up, breaker closed) first, then the
    // suspect ones as last-resort probes.
    std::vector<std::size_t> order;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t ep = (active_ep_ + i) % n;
            const bool healthy = (ep >= 64 ||
                                  (up_mask & (std::uint64_t(1) << ep))) &&
                                 !retry_.breakerOpen(ep);
            if ((pass == 0) == healthy)
                order.push_back(ep);
        }
    }
    // Two sweeps. With more than one endpoint, the first gives each a
    // single connect attempt, so a dead server whose socket refuses
    // costs the failover to a live one behind it no connect timeout.
    // The second waits the connect budget on the endpoints that
    // refused, for a fleet that is still (re)starting.
    std::vector<bool> refused(n, false);
    std::optional<SimError> last;
    for (int sweep = 0; sweep < 2; ++sweep) {
        for (const std::size_t ep : order) {
            if (sweep == 1 && !refused[ep])
                continue;
            const bool quick = sweep == 0 && n > 1;
            const std::string &addr = options_.endpoints[ep];
            std::unique_ptr<ipc::ByteChannel> ch;
            try {
                // Cap the connect wait to the retry round's remaining
                // deadline, so a dead endpoint cannot eat the budget
                // of the live ones behind it.
                ch = openChannelTo(
                    ep, quick ? 0.0
                              : retry_.capToDeadline(
                                    options_.connect_timeout_ms));
            } catch (const SimError &e) {
                last = e;
                refused[ep] = quick;
                continue;
            }
            try {
                // With a base image the fresh fabric starts at tick 0
                // and the image rewinds it to the base; without one
                // the lineage is empty and the session starts cold at
                // the base tick.
                Tick start = base_image_.empty() ? journal_base_ : 0;
                ipc::HelloReply rep = helloOn(*ch, addr, start);
                Tick server_tick = journal_base_;
                if (!base_image_.empty()) {
                    ipc::CkptLoadReply ack =
                        ckptLoadOn(*ch, addr, base_image_);
                    server_tick = ack.cur_time;
                    if (server_tick != journal_base_) {
                        throw SimError(
                            ErrorKind::Transport,
                            "restored server is at tick " +
                                std::to_string(server_tick) +
                                " but the base image was taken at "
                                "tick " +
                                std::to_string(journal_base_));
                    }
                    if (ack.digest != base_digest_) {
                        // The replica's own re-serialization disagrees
                        // with the attested base: its state diverged
                        // and nothing it computes can be trusted.
                        ++attestationMismatches;
                        throw SimError(
                            ErrorKind::Transport,
                            "replica attestation mismatch on '" +
                                addr + "': restored state digest " +
                                std::to_string(ack.digest) +
                                " != base digest " +
                                std::to_string(base_digest_));
                    }
                }
                num_nodes_ = rep.num_nodes;
                if (ep != active_ep_)
                    ++failovers;
                active_ep_ = ep;
                retry_.noteSuccess(ep);
                chan_ = std::move(ch);
                server_time_ = server_tick;
                return;
            } catch (const SimError &e) {
                last = e;
            }
        }
    }
    throw *last; // endpoints is never empty
}

void
RemoteNetwork::replayJournal()
{
    for (std::size_t i = 0; i < journal_.size(); ++i) {
        const QuantumRecord &rec = journal_[i];
        if (test_hooks.on_replay)
            test_hooks.on_replay(i);
        ipc::StepRequest req;
        req.target = rec.target;
        req.attest = rec.attested;
        req.packets = rec.packets;
        std::uint8_t flags = 0;
        std::uint64_t digest = 0;
        ipc::AdvanceReply rep = exchangeStep(req, flags, digest);
        // The original exchange attested this quantum: the rebuilt
        // replica must reproduce that digest exactly, or its state
        // has diverged from the run the journal records — quarantine
        // it (feed its breaker, shift the endpoint preference) and
        // let the retry round recover on another replica.
        if (rec.attested && digest != rec.digest) {
            ++attestationMismatches;
            retry_.noteRoundFailed(active_ep_);
            const std::string addr = activeEndpoint();
            active_ep_ =
                (active_ep_ + 1) % options_.endpoints.size();
            throw SimError(
                ErrorKind::Transport,
                "replica attestation mismatch on '" + addr +
                    "' at replayed quantum " + std::to_string(i) +
                    ": digest " + std::to_string(digest) + " != " +
                    std::to_string(rec.digest));
        }
        // The replies' deliveries were already applied in the
        // original run; only the clock mirror moves.
        server_time_ = rep.cur_time;
    }
}

void
RemoteNetwork::ensureSession()
{
    if (chan_ && chan_->valid())
        return;
    chan_.reset();
    const bool recon = ever_connected_;
    coldOpen();
    ever_connected_ = true;
    if (recon) {
        ++reconnects;
        if (test_hooks.on_recover)
            test_hooks.on_recover();
    }
    // By the server's determinism, re-issuing the journaled quanta
    // against the restored base reproduces the pre-failure state —
    // deliveries, stats and tuned table — bit for bit.
    replayJournal();
}

void
RemoteNetwork::applyReply(const ipc::AdvanceReply &rep)
{
    cur_time_ = rep.cur_time;
    server_time_ = rep.cur_time;
    idle_ = rep.idle;
    acct_.injected = rep.injected;
    acct_.delivered = rep.delivered;
    acct_.in_flight = rep.in_flight;
    ++rpcRoundTrips;

    // Replay in delivery order: the handler (and the mirrored
    // aggregates) see exactly what an in-process backend would
    // have produced, in the same order.
    for (const PacketPtr &pkt : rep.deliveries) {
        ++packetsDelivered;
        totalLatency.sample(static_cast<double>(pkt->latency()));
        networkLatency.sample(
            static_cast<double>(pkt->networkLatency()));
        queueLatency.sample(static_cast<double>(pkt->queueLatency()));
        hopCount.sample(static_cast<double>(pkt->hops));
        vnetLatency[static_cast<int>(pkt->cls)]->sample(
            static_cast<double>(pkt->latency()));
        if (handler_)
            handler_(pkt);
    }
}

ipc::AdvanceReply
RemoteNetwork::exchangeStep(const ipc::StepRequest &req,
                            std::uint8_t &flags, std::uint64_t &digest)
{
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::Step);
    ipc::encodeStep(aw, req);
    ipc::sendMessage(*chan_, std::move(aw));

    ipc::Message msg = expectReply(options_.quantum_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::StepReply) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected StepReply, got ") +
                           ipc::toString(msg.type));
    }
    ipc::AdvanceReply rep = ipc::decodeStepReply(msg.ar, flags, &digest);
    msg.done();
    return rep;
}

void
RemoteNetwork::stepOnce(const ipc::StepRequest &req)
{
    if (test_hooks.on_op)
        test_hooks.on_op(op_counter_++);
    std::uint8_t flags = 0;
    std::uint64_t digest = 0;
    ipc::AdvanceReply rep = exchangeStep(req, flags, digest);
    last_step_attested_ = (flags & ipc::step_flag_attested) != 0;
    last_step_digest_ = digest;
    if (test_hooks.corrupt_attest)
        last_step_digest_ ^= 1;
    if (flags & ipc::step_flag_throttled)
        ++schedThrottles;
    applyReply(rep);
}

void
RemoteNetwork::advanceTo(Tick t)
{
    // The abort request is sticky until the next advanceTo() call.
    abort_.store(false, std::memory_order_relaxed);

    // Idle elision: an idle fabric with nothing buffered cannot
    // produce a delivery, so the quantum needs no RPC at all — the
    // clock advances locally and the server's own idle fast-forward
    // catches its copy up on the next real exchange. This is where
    // most of the amortized per-quantum overhead goes: long idle
    // stretches (warmup, drain tails, disengaged phases) cost zero
    // syscalls.
    if (idle_ && pending_.empty()) {
        if (t > cur_time_) {
            cur_time_ = t;
            ++elidedQuanta;
        }
        return;
    }

    // Build the quantum request once; every retry attempt re-sends
    // identical bytes against a recovered session, and the request
    // joins the journal on success so later recoveries replay it.
    // One Step exchange: inject batch + advance target in one frame,
    // reply in one frame — two syscalls a quantum.
    ipc::StepRequest req;
    req.target = t;
    req.packets = std::move(pending_);
    pending_.clear();
    // Periodic attestation: every attest_quanta-th issued quantum
    // carries a digest request, journaled with its answer. The cadence
    // counts issued quanta, so it is a pure function of simulated
    // progress and survives retries (the identical request is
    // re-sent).
    ++attest_counter_;
    req.attest = options_.attest_quanta != 0 &&
                 attest_counter_ % options_.attest_quanta == 0;
    runWithRetry([&] {
        stepOnce(req);
        return 0;
    });
    journal_.push_back({t, std::move(req.packets),
                        req.attest && last_step_attested_,
                        last_step_digest_});
    ++quanta_since_base_;
    if (options_.ckpt_quanta != 0 &&
        quanta_since_base_ >= options_.ckpt_quanta)
        refreshBase();
}

void
RemoteNetwork::syncNow()
{
    if (server_time_ >= cur_time_)
        return;
    // Idle elision left the server's clock behind; an empty Step
    // brings it to the client's tick so paired
    // state (tables, stats, checkpoints) is read at the same time on
    // both sides. The fabric was idle throughout, so the reply cannot
    // carry deliveries. Not journaled: a recovery replay ends at the
    // last journaled quantum and the next syncNow() repeats the
    // catch-up, deterministically.
    if (test_hooks.on_op)
        test_hooks.on_op(op_counter_++);
    ipc::StepRequest req;
    req.target = cur_time_;
    std::uint8_t flags = 0;
    std::uint64_t digest = 0;
    applyReply(exchangeStep(req, flags, digest));
}

ipc::CkptReply
RemoteNetwork::ckptSaveNow()
{
    if (test_hooks.on_op)
        test_hooks.on_op(op_counter_++);
    if (test_hooks.on_ckpt_save)
        test_hooks.on_ckpt_save();
    ipc::sendMessage(*chan_, ipc::beginMessage(ipc::MsgType::CkptSave));
    ipc::Message msg = expectReply(options_.quantum_timeout_ms);
    if (msg.type == ipc::MsgType::ErrorReply)
        ipc::throwDecodedError(msg.ar);
    if (msg.type != ipc::MsgType::CkptData) {
        throw SimError(ErrorKind::Transport,
                       std::string("expected CkptData, got ") +
                           ipc::toString(msg.type));
    }
    ipc::CkptReply rep = ipc::decodeCkptReply(msg.ar);
    msg.done();
    // The image's CRC64 is recomputed locally: what this client holds
    // must be what the server attested, or the lineage built on it
    // would replicate corruption instead of state.
    if (crc64(rep.image) != rep.digest) {
        throw SimError(ErrorKind::Transport,
                       "checkpoint image failed its attestation digest "
                       "(corrupted in transit)");
    }
    if (test_hooks.corrupt_attest)
        rep.digest ^= 1;
    return rep;
}

void
RemoteNetwork::adoptBase(std::string image, std::uint64_t digest)
{
    base_image_ = std::move(image);
    base_digest_ = digest;
    journal_base_ = cur_time_;
    journal_.clear();
    quanta_since_base_ = 0;
}

void
RemoteNetwork::refreshBase()
{
    try {
        syncNow();
        ipc::CkptReply ckpt = ckptSaveNow();
        adoptBase(std::move(ckpt.image), ckpt.digest);
    } catch (const SimError &) {
        // Single attempt: the old lineage (longer journal) is still
        // valid, and the next operation's retry round recovers the
        // dropped connection.
        markDisconnected();
    }
}

void
RemoteNetwork::setDeliveryHandler(DeliveryHandler handler)
{
    handler_ = std::move(handler);
}

abstractnet::LatencyTable
RemoteNetwork::fetchTunedTable()
{
    return runWithRetry([&] {
        syncNow();
        ipc::sendMessage(*chan_,
                         ipc::beginMessage(ipc::MsgType::TableGet));
        ipc::Message msg = expectReply(options_.quantum_timeout_ms);
        if (msg.type == ipc::MsgType::ErrorReply)
            ipc::throwDecodedError(msg.ar);
        if (msg.type != ipc::MsgType::TableData) {
            throw SimError(ErrorKind::Transport,
                           std::string("expected TableData, got ") +
                               ipc::toString(msg.type));
        }
        abstractnet::LatencyTable table = table_proto_;
        try {
            // Table bytes come off the wire: archive misuse on a
            // CRC-valid-but-malformed payload must be a typed error.
            logging::ThrowOnError guard;
            table.restoreBinary(msg.ar);
        } catch (const SimError &err) {
            if (err.kind() == ErrorKind::Transport ||
                err.kind() == ErrorKind::Timeout)
                throw;
            throw SimError(ErrorKind::Transport,
                           std::string("malformed TableData payload: ") +
                               err.what());
        }
        msg.done();
        return table;
    });
}

std::vector<ipc::StatRow>
RemoteNetwork::fetchRemoteStats()
{
    return runWithRetry([&] {
        syncNow();
        ipc::sendMessage(*chan_,
                         ipc::beginMessage(ipc::MsgType::StatsGet));
        ipc::Message msg = expectReply(options_.quantum_timeout_ms);
        if (msg.type == ipc::MsgType::ErrorReply)
            ipc::throwDecodedError(msg.ar);
        if (msg.type != ipc::MsgType::StatsData) {
            throw SimError(ErrorKind::Transport,
                           std::string("expected StatsData, got ") +
                               ipc::toString(msg.type));
        }
        auto rows = ipc::decodeStatsReply(msg.ar);
        msg.done();
        return rows;
    });
}

void
RemoteNetwork::save(ArchiveWriter &aw)
{
    aw.beginSection("remote_net");
    aw.putU64(cur_time_);
    aw.putBool(idle_);
    aw.putU64(acct_.injected);
    aw.putU64(acct_.delivered);
    aw.putU64(acct_.in_flight);
    aw.putU64(num_nodes_);
    aw.putU64(pending_.size());
    for (const PacketPtr &pkt : pending_)
        savePacket(aw, *pkt);

    // Paired server-side checkpoint, embedded so one client image
    // restores both processes coherently. Unreachable server: the
    // image is omitted and restore opens a fresh session at the saved
    // tick (the deliveries still in the old fabric are lost — the same
    // loss the outage itself caused).
    ipc::CkptReply ckpt;
    try {
        ckpt = runWithRetry([&] {
            // The paired image must be taken at the client's tick, not
            // wherever idle elision left the server's clock.
            syncNow();
            return ckptSaveNow();
        });
    } catch (const SimError &err) {
        warn("remote checkpoint unavailable (", err.what(),
             "); saving the client half only");
    }
    if (!ckpt.image.empty()) {
        // An explicit checkpoint is also a fresh recovery base.
        adoptBase(ckpt.image, ckpt.digest);
    }
    aw.putBool(!ckpt.image.empty());
    if (!ckpt.image.empty())
        aw.putString(ckpt.image);
    aw.endSection();
}

void
RemoteNetwork::restore(ArchiveReader &ar)
{
    ar.expectSection("remote_net");
    cur_time_ = ar.getU64();
    idle_ = ar.getBool();
    acct_.injected = ar.getU64();
    acct_.delivered = ar.getU64();
    acct_.in_flight = ar.getU64();
    num_nodes_ = ar.getU64();
    std::vector<PacketPtr> pending;
    std::uint64_t n = ar.getU64();
    pending.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        pending.push_back(restorePacket(ar));
    bool has_image = ar.getBool();
    std::string image = has_image ? ar.getString() : std::string();
    ar.endSection();

    // Whatever session is live belongs to the pre-restore timeline;
    // the restored image becomes the new recovery base (empty image =
    // cold Hello at the saved tick, rebuilding an empty fabric).
    markDisconnected();
    journal_.clear();
    quanta_since_base_ = 0;
    journal_base_ = cur_time_;
    base_image_ = std::move(image);
    // The image came from a trusted archive, not the wire: its digest
    // is recomputed locally so the restored session's CkptLoadAck can
    // still be attested against it.
    base_digest_ = base_image_.empty() ? 0 : crc64(base_image_);
    if (test_hooks.corrupt_attest && !base_image_.empty())
        base_digest_ ^= 1;

    runWithRetry([] { return 0; });
    pending_ = std::move(pending);
}

} // namespace remote
} // namespace noc
} // namespace rasim
