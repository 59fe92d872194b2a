#include "noc/remote/remote_network.hh"

#include <algorithm>
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

    o.ckpt_quanta =
        cfg.getUInt("network.remote.ckpt_quanta", o.ckpt_quanta);
    o.attest_quanta =
        cfg.getUInt("network.remote.attest_quanta", o.attest_quanta);
    o.retry = ipc::RetryOptions::fromConfig(cfg);
    o.fault = TransportFaultOptions::fromConfig(cfg);

    if (!ipc::validAddress(o.socket))
        fatal("remote.socket: unusable address '", o.socket, "'");
    if (o.connect_timeout_ms <= 0.0)
        fatal("remote.connect_timeout_ms must be positive");
    if (o.quantum_timeout_ms < 0.0)
        fatal("remote.quantum_timeout_ms must be non-negative");
    if (o.model != "cycle" && o.model != "deflection")
        fatal("remote.model must be cycle or deflection, not '",
              o.model, "'");
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
      health(this, "health"),
      reconnects(&health, "reconnects",
                 "sessions re-opened after a connection loss"),
      retries(&health, "retries",
              "transport attempts re-run after a backoff"),
      failovers(&health, "failovers", "retired counter, always 0"),
      backoffMsTotal(&health, "backoff_ms_total",
                     "wall-clock milliseconds slept in retry backoffs"),
      breakerTrips(&health, "breaker_trips", "retired counter, always 0"),
      standbyPrimeFailures(&health, "standby_prime_failures",
                           "retired counter, always 0"),
      reprimes(&health, "reprimes", "retired counter, always 0"),
      heartbeatMisses(&health, "heartbeat_misses",
                      "retired counter, always 0"),
      attestationMismatches(&health, "attestation_mismatches",
                            "replica state digests that diverged"),
      workerRestarts(&health, "worker_restarts",
                     "retired counter, always 0"),
      params_(params), options_(std::move(options)),
      // Identical geometry to the bridge's reciprocal table, so the
      // server's shadow table and the bridge's table are comparable
      // entry for entry.
      table_proto_(params, params.columns + params.rows + 2,
                   options_.abstract.ewma_alpha,
                   options_.abstract.granularity, params.numNodes())
{
    params_.validate();
    // One fault schedule and one retry policy for the object's whole
    // life: the draw sequences run across every reconnect,
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
    backoffMsTotal.set(retry_.backoffMsTotal());
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
RemoteNetwork::expectReplyOn(ipc::ByteChannel &ch, double timeout_ms)
{
    auto msg = ipc::recvMessage(ch, timeout_ms, &abort_);
    if (!msg) {
        throw SimError(ErrorKind::Transport,
                       "server '" + options_.socket +
                           "' closed the connection mid-request");
    }
    return std::move(*msg);
}

ipc::Message
RemoteNetwork::expectReply(double timeout_ms)
{
    return expectReplyOn(*chan_, timeout_ms);
}

std::unique_ptr<ipc::ByteChannel>
RemoteNetwork::openChannel(double timeout_ms)
{
    ipc::Fd fd = ipc::connectTo(options_.socket, timeout_ms);
    std::unique_ptr<ipc::ByteChannel> ch =
        std::make_unique<ipc::FdChannel>(std::move(fd));
    if (options_.fault.enabled) {
        ch = std::make_unique<ipc::FaultyTransport>(std::move(ch),
                                                    &fault_sched_);
    }
    return ch;
}

ipc::HelloReply
RemoteNetwork::helloOn(ipc::ByteChannel &ch, Tick start_tick)
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

    ipc::Message msg = expectReplyOn(ch, options_.connect_timeout_ms);
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
RemoteNetwork::ckptLoadOn(ipc::ByteChannel &ch, const std::string &image)
{
    ArchiveWriter aw = ipc::beginMessage(ipc::MsgType::CkptLoad);
    aw.putString(image);
    ipc::sendMessage(ch, std::move(aw));
    ipc::Message msg = expectReplyOn(ch, options_.quantum_timeout_ms);
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

void
RemoteNetwork::coldOpen()
{
    // Cap the connect wait to the retry round's remaining deadline;
    // connectTo() keeps retrying a refused connect until then, which
    // covers a server being restarted on the same address.
    std::unique_ptr<ipc::ByteChannel> ch =
        openChannel(retry_.capToDeadline(options_.connect_timeout_ms));
    // With a base image the fresh fabric starts at tick 0 and the image
    // rewinds it to the base; without one the lineage is empty and the
    // session starts cold at the base tick.
    Tick start = base_image_.empty() ? journal_base_ : 0;
    ipc::HelloReply rep = helloOn(*ch, start);
    Tick server_tick = journal_base_;
    if (!base_image_.empty()) {
        ipc::CkptLoadReply ack = ckptLoadOn(*ch, base_image_);
        server_tick = ack.cur_time;
        if (server_tick != journal_base_) {
            throw SimError(ErrorKind::Transport,
                           "restored server is at tick " +
                               std::to_string(server_tick) +
                               " but the base image was taken at tick " +
                               std::to_string(journal_base_));
        }
        if (ack.digest != base_digest_) {
            // The replica's own re-serialization disagrees with the
            // attested base: its state diverged and nothing it
            // computes can be trusted.
            ++attestationMismatches;
            throw SimError(ErrorKind::Transport,
                           "replica attestation mismatch on '" +
                               options_.socket +
                               "': restored state digest " +
                               std::to_string(ack.digest) +
                               " != base digest " +
                               std::to_string(base_digest_));
        }
    }
    num_nodes_ = rep.num_nodes;
    chan_ = std::move(ch);
    server_time_ = server_tick;
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
        // has diverged from the run the journal records. The retry
        // round rebuilds it from scratch; if it keeps diverging the
        // round runs out and the bridge degrades to tuned-abstract, so
        // the diverged replica is never computed on.
        if (rec.attested && digest != rec.digest) {
            ++attestationMismatches;
            throw SimError(
                ErrorKind::Transport,
                "replica attestation mismatch on '" + options_.socket +
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
