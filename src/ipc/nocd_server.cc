#include "ipc/nocd_server.hh"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "abstractnet/latency_table.hh"
#include "ipc/faulty_transport.hh"
#include "ipc/protocol.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/parallel_engine.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace ipc
{

/**
 * One hosted network and everything that shadows it. Sessions share
 * nothing mutable with each other, which is what keeps every
 * concurrent session bit-identical to a solo run against a dedicated
 * server.
 */
struct NocServer::Session
{
    explicit Session(const HelloRequest &req) : hello(req)
    {
        sim = std::make_unique<Simulation>();
        if (req.model == "cycle") {
            cycle = std::make_unique<noc::CycleNetwork>(*sim, "net",
                                                        req.params);
            net = cycle.get();
        } else if (req.model == "deflection") {
            defl = std::make_unique<noc::DeflectionNetwork>(
                *sim, "net", req.params);
            net = defl.get();
        } else {
            throw SimError(ErrorKind::Config,
                           "unknown hosted model '" + req.model +
                               "' (want cycle or deflection)");
        }
        if (req.engine_workers > 0) {
            engine =
                std::make_unique<ParallelEngine>(req.engine_workers);
            net->setEngine(engine.get());
        }
        table = std::make_unique<abstractnet::LatencyTable>(
            req.params, req.table_max_hops, req.table_alpha,
            req.table_pair_granularity
                ? abstractnet::LatencyTable::Granularity::Pair
                : abstractnet::LatencyTable::Granularity::Distance,
            req.params.numNodes());

        // Shadow-tune from every delivery, in delivery order — the
        // identical order the client-side bridge observes them, so
        // the two tables evolve bit-identically.
        net->setDeliveryHandler([this](const noc::PacketPtr &pkt) {
            deliveries.push_back(pkt);
            table->observe(static_cast<int>(pkt->cls),
                           static_cast<int>(pkt->hops),
                           hello.params.flitsPerPacket(pkt->size_bytes),
                           pkt->latency(), pkt->src, pkt->dst);
        });

        // Reconnect after a client-side quarantine: catch a fresh
        // network up to the client's clock so injections at the
        // current quantum are not "in the past".
        if (req.start_tick > 0)
            net->advanceTo(req.start_tick);
        deliveries.clear();
    }

    const stats::Group &statsGroup() const { return *group(); }
    stats::Group *
    group() const
    {
        return cycle ? static_cast<stats::Group *>(cycle.get())
                     : static_cast<stats::Group *>(defl.get());
    }

    void
    save(ArchiveWriter &aw) const
    {
        aw.beginSection("nocd");
        aw.putString(hello.model);
        aw.putU32(static_cast<std::uint32_t>(hello.params.columns));
        aw.putU32(static_cast<std::uint32_t>(hello.params.rows));
        aw.putU64(net->curTime());
        aw.endSection();
        saveStats(aw, statsGroup());
        if (cycle)
            cycle->save(aw);
        else
            defl->save(aw);
        table->saveBinary(aw);
    }

    void
    restore(ArchiveReader &ar)
    {
        ar.expectSection("nocd");
        std::string model = ar.getString();
        auto columns = static_cast<int>(ar.getU32());
        auto rows = static_cast<int>(ar.getU32());
        ar.getU64(); // informational tick
        ar.endSection();
        if (model != hello.model || columns != hello.params.columns ||
            rows != hello.params.rows) {
            throw SimError(ErrorKind::Config,
                           "checkpoint was taken on a different hosted "
                           "network (" +
                               model + " " + std::to_string(columns) +
                               "x" + std::to_string(rows) + ")");
        }
        restoreStats(ar, *group());
        if (cycle)
            cycle->restore(ar);
        else
            defl->restore(ar);
        table->restoreBinary(ar);
        deliveries.clear();
    }

    /** Serialize the whole session state to archive bytes — the
     *  CkptSave image, and the byte string the CRC64 attestation
     *  digest is taken over. Deterministic: two replicas holding the
     *  same state produce identical bytes, hence identical digests. */
    std::string
    serializedState() const
    {
        ArchiveWriter aw;
        save(aw);
        return aw.finish();
    }

    /** CRC64 replica-attestation digest of the current state. */
    std::uint64_t stateDigest() const { return crc64(serializedState()); }

    /** Package the state a quantum reply mirrors to the client,
     *  consuming the deliveries gathered since the last reply. */
    AdvanceReply
    takeReply()
    {
        AdvanceReply rep;
        rep.cur_time = net->curTime();
        rep.idle = net->idle();
        if (auto acct = net->accounting()) {
            rep.injected = acct->injected;
            rep.delivered = acct->delivered;
            rep.in_flight = acct->in_flight;
        }
        rep.deliveries = std::move(deliveries);
        deliveries.clear();
        return rep;
    }

    HelloRequest hello;
    std::unique_ptr<Simulation> sim;
    std::unique_ptr<ParallelEngine> engine;
    std::unique_ptr<noc::CycleNetwork> cycle;
    std::unique_ptr<noc::DeflectionNetwork> defl;
    noc::NetworkModel *net = nullptr;
    std::unique_ptr<abstractnet::LatencyTable> table;
    std::vector<noc::PacketPtr> deliveries;
};

/** One session thread. The Fd lives here so its lifetime matches the
 *  thread that reads from it — which is also what lets the watchdog
 *  reap a hung session from the accept thread: shutdownFd() on the
 *  shared Fd makes the blocked session thread see EOF without racing
 *  on descriptor ownership. */
struct NocServer::Worker
{
    Fd conn;
    std::thread thread;
    std::atomic<bool> done{false};
    /** steady-clock ms of the last completed frame (recv or reply);
     *  the watchdog reaps the session when this goes stale. */
    std::atomic<std::uint64_t> last_active_ms{0};
    std::atomic<bool> reaped{false};
};

namespace
{

void
flattenStats(const stats::Group &g, std::vector<StatRow> &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.push_back({g.path() + "." + s->name(), sub, v});
    for (const stats::Group *c : g.children())
        flattenStats(*c, out);
}

void
sendError(const Fd &conn, const SimError &err)
{
    ArchiveWriter aw = beginMessage(MsgType::ErrorReply);
    encodeError(aw, err.kind(), err.what());
    sendMessage(conn, std::move(aw));
}

void
sendError(ByteChannel &conn, const SimError &err)
{
    ArchiveWriter aw = beginMessage(MsgType::ErrorReply);
    encodeError(aw, err.kind(), err.what());
    sendMessage(conn, std::move(aw));
}

std::uint64_t
nowMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

NocServerOptions
NocServerOptions::fromConfig(const Config &cfg)
{
    NocServerOptions o;
    o.address = cfg.getString("server.address", o.address);
    o.max_sessions = cfg.getUInt("server.max_sessions", o.max_sessions);
    o.max_batch_packets =
        cfg.getUInt("server.max_batch_packets", o.max_batch_packets);
    o.drain_timeout_ms =
        cfg.getDouble("server.drain_timeout_ms", o.drain_timeout_ms);
    o.session_timeout_ms =
        cfg.getDouble("server.session_timeout_ms", o.session_timeout_ms);
    if (o.drain_timeout_ms < 0.0 || o.session_timeout_ms < 0.0)
        fatal("server.*_timeout_ms must be non-negative");
    o.fault = TransportFaultOptions::fromConfig(cfg);
    return o;
}

NocServer::NocServer(NocServerOptions opts) : opts_(std::move(opts))
{
    listener_ = listenOn(opts_.address);
}

NocServer::~NocServer()
{
    stop();
    reapWorkers(true);
    listener_.reset();
    // A clean shutdown leaves no stale socket file behind.
    unlinkAddress(opts_.address);
}

void
NocServer::stop()
{
    // Only the stores: stop() is called from signal handlers, so it
    // must stay async-signal-safe (no locks, no notifies). Waiters
    // poll the flags in timed slices.
    stop_.store(true, std::memory_order_relaxed);
    wake_.store(true, std::memory_order_relaxed);
}

void
NocServer::drain()
{
    drain_.store(true, std::memory_order_relaxed);
    wake_.store(true, std::memory_order_relaxed);
}

NocServerCounters
NocServer::counters() const
{
    NocServerCounters c;
    c.sessions_served = sessions_served_.load(std::memory_order_relaxed);
    c.sessions_active = sessions_active_.load(std::memory_order_relaxed);
    c.sessions_peak = sessions_peak_.load(std::memory_order_relaxed);
    c.sessions_rejected =
        sessions_rejected_.load(std::memory_order_relaxed);
    c.frames = frames_.load(std::memory_order_relaxed);
    c.quota_trips = quota_trips_.load(std::memory_order_relaxed);
    c.sessions_reaped =
        sessions_reaped_.load(std::memory_order_relaxed);
    return c;
}

void
NocServer::reapWorkers(bool all)
{
    std::lock_guard<std::mutex> lk(workers_mu_);
    for (auto it = workers_.begin(); it != workers_.end();) {
        Worker &w = **it;
        if (all || w.done.load(std::memory_order_acquire)) {
            if (w.thread.joinable())
                w.thread.join();
            it = workers_.erase(it);
        } else {
            ++it;
        }
    }
}

void
NocServer::run()
{
    // With the watchdog on, the accept wait must tick: a hung session
    // is reaped by the *accept* thread, which otherwise blocks
    // indefinitely when no new client ever connects.
    double slice = 0.0;
    if (opts_.session_timeout_ms > 0.0) {
        slice = std::min(500.0,
                         std::max(10.0, opts_.session_timeout_ms / 4.0));
    }
    while (!stop_.load(std::memory_order_relaxed)) {
        Fd conn = acceptOn(listener_, slice, &wake_);
        if (drain_.load(std::memory_order_relaxed))
            break; // an accepted-but-unserved conn just closes
        if (!conn.valid()) {
            // Stop requested, watchdog tick, or spurious wakeup.
            reapHung();
            continue;
        }
        reapWorkers(false);

        std::uint64_t active =
            sessions_active_.load(std::memory_order_relaxed);
        if (opts_.max_sessions > 0 && active >= opts_.max_sessions) {
            sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
            try {
                sendError(conn,
                          SimError(ErrorKind::Transport,
                                   "server at capacity (" +
                                       std::to_string(active) + " of " +
                                       std::to_string(
                                           opts_.max_sessions) +
                                       " sessions active); retry later"));
            } catch (const SimError &) {
                // The refused client vanished first; nothing to tell.
            }
            continue;
        }

        std::uint64_t id =
            sessions_served_.fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t now_active =
            sessions_active_.fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t peak =
            sessions_peak_.load(std::memory_order_relaxed);
        while (peak < now_active &&
               !sessions_peak_.compare_exchange_weak(
                   peak, now_active, std::memory_order_relaxed)) {
        }

        auto owned = std::make_unique<Worker>();
        Worker *w = owned.get();
        w->conn = std::move(conn);
        {
            std::lock_guard<std::mutex> lk(workers_mu_);
            workers_.push_back(std::move(owned));
        }
        w->last_active_ms.store(nowMs(), std::memory_order_relaxed);
        w->thread = std::thread([this, w, id] {
            try {
                serveConnection(*w, id);
            } catch (const SimError &err) {
                // A sick or vanished client must not take the server
                // down; drop the session and keep serving the rest.
                // (A reaped session's error is the watchdog's doing,
                // already counted; shutdown noise is not news either.)
                if (!stop_.load(std::memory_order_relaxed) &&
                    !drain_.load(std::memory_order_relaxed) &&
                    !w->reaped.load(std::memory_order_relaxed)) {
                    warn("nocd session ", id,
                         " ended abnormally: ", err.what());
                }
            }
            // The Fd itself is reclaimed later (reapWorkers); shut it
            // down now so the peer sees EOF the moment the session
            // ends instead of when the accept loop next turns over.
            shutdownFd(w->conn);
            sessions_active_.fetch_sub(1, std::memory_order_relaxed);
            w->done.store(true, std::memory_order_release);
        });
    }
    if (drain_.load(std::memory_order_relaxed) &&
        !stop_.load(std::memory_order_relaxed)) {
        drainSessions();
    }
    reapWorkers(true);
}

void
NocServer::reapHung()
{
    if (opts_.session_timeout_ms <= 0.0)
        return;
    const std::uint64_t now = nowMs();
    const auto budget =
        static_cast<std::uint64_t>(opts_.session_timeout_ms);
    std::lock_guard<std::mutex> lk(workers_mu_);
    for (const auto &w : workers_) {
        if (w->done.load(std::memory_order_acquire) ||
            w->reaped.load(std::memory_order_relaxed)) {
            continue;
        }
        std::uint64_t last =
            w->last_active_ms.load(std::memory_order_relaxed);
        if (last == 0 || now < last || now - last < budget)
            continue;
        w->reaped.store(true, std::memory_order_relaxed);
        sessions_reaped_.fetch_add(1, std::memory_order_relaxed);
        // Shut down, don't close: the session thread owns the Fd and
        // is (at worst) blocked reading it — it sees EOF and unwinds.
        shutdownFd(w->conn);
    }
}

void
NocServer::drainSessions()
{
    const auto start = std::chrono::steady_clock::now();
    while (sessions_active_.load(std::memory_order_relaxed) > 0) {
        if (opts_.drain_timeout_ms > 0.0) {
            double waited = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
            if (waited >= opts_.drain_timeout_ms)
                break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // Whatever is still alive gets the hard stop it would have gotten
    // without the grace period.
    stop_.store(true, std::memory_order_relaxed);
}

void
NocServer::serveConnection(Worker &w, std::uint64_t id)
{
    // The session's view of its socket: a FaultyTransport when the
    // daemon itself runs chaos (stream = session id, so concurrent
    // sessions draw independent, individually deterministic fault
    // sequences), a plain FdChannel otherwise.
    std::unique_ptr<ByteChannel> owned =
        std::make_unique<FdChannel>(&w.conn);
    if (opts_.fault.enabled) {
        owned = std::make_unique<FaultyTransport>(std::move(owned),
                                                  opts_.fault, id);
    }
    ByteChannel &conn = *owned;

    std::unique_ptr<Session> session;
    while (!stop_.load(std::memory_order_relaxed)) {
        // Drain is only honoured here, between frames: the previous
        // reply went out whole, nothing has been read of the next
        // request, so closing now leaves no torn frame on the wire.
        if (drain_.load(std::memory_order_relaxed)) {
            drainTail(conn, session);
            return;
        }
        std::optional<Message> msg;
        try {
            msg = recvMessage(conn, 0.0, &wake_);
        } catch (const SimError &) {
            // A read cut short by shutdown is the wind-down working,
            // not a session failure. On drain the wake may have
            // interrupted the wait with a request already buffered on
            // the socket — that request still deserves its reply.
            if (stop_.load(std::memory_order_relaxed))
                return;
            if (drain_.load(std::memory_order_relaxed)) {
                drainTail(conn, session);
                return;
            }
            throw;
        }
        if (!msg)
            return; // clean EOF: the client is gone
        w.last_active_ms.store(nowMs(), std::memory_order_relaxed);
        frames_.fetch_add(1, std::memory_order_relaxed);
        if (!dispatch(conn, *msg, session))
            return;
        w.last_active_ms.store(nowMs(), std::memory_order_relaxed);
    }
}

void
NocServer::drainTail(ByteChannel &conn, std::unique_ptr<Session> &session)
{
    // A request that was already on the wire when the drain landed
    // gets its reply before the frame-boundary close; a client racing
    // further requests past this point loses them, exactly as if the
    // daemon had gone away an instant earlier.
    try {
        while (conn.valid() && conn.readable()) {
            std::optional<Message> msg = recvMessage(conn, 0.0);
            if (!msg)
                return;
            frames_.fetch_add(1, std::memory_order_relaxed);
            if (!dispatch(conn, *msg, session))
                return;
        }
    } catch (const SimError &) {
        // Best effort only: the wind-down must not turn an interrupted
        // read into a crash.
    }
}

bool
NocServer::dispatch(ByteChannel &conn, Message &msg,
                    std::unique_ptr<Session> &session)
{
    // Every failure below is reported to the client as a typed
    // ErrorReply; only transport trouble while replying propagates.
    try {
        if (!session && msg.type != MsgType::Hello &&
            msg.type != MsgType::Bye) {
            throw SimError(ErrorKind::Transport,
                           std::string("request ") + toString(msg.type) +
                               " before Hello");
        }
        switch (msg.type) {
          case MsgType::Hello: {
            HelloRequest req = decodeHello(msg.ar);
            msg.done();
            session = std::make_unique<Session>(req);
            HelloReply rep;
            rep.num_nodes = session->net->numNodes();
            rep.cur_time = session->net->curTime();
            ArchiveWriter aw = beginMessage(MsgType::HelloAck);
            encodeHelloReply(aw, rep);
            sendMessage(conn, std::move(aw));
            return true;
          }
          case MsgType::Step: {
            StepRequest req = decodeStep(msg.ar);
            msg.done();
            if (opts_.max_batch_packets > 0 &&
                req.packets.size() > opts_.max_batch_packets) {
                quota_trips_.fetch_add(1, std::memory_order_relaxed);
                throw SimError(
                    ErrorKind::Transport,
                    "backpressure: inject batch of " +
                        std::to_string(req.packets.size()) +
                        " packets exceeds server quota of " +
                        std::to_string(opts_.max_batch_packets));
            }
            session->deliveries.clear();
            for (const auto &pkt : req.packets)
                session->net->inject(pkt);
            session->net->advanceTo(req.target);
            AdvanceReply rep = session->takeReply();
            std::uint8_t flags = 0;
            std::uint64_t digest = 0;
            if (req.attest) {
                flags = step_flag_attested;
                digest = session->stateDigest();
            }
            ArchiveWriter aw = beginMessage(MsgType::StepReply);
            encodeStepReply(aw, rep, flags, digest);
            sendMessage(conn, std::move(aw));
            return true;
          }
          case MsgType::TableGet: {
            msg.done();
            ArchiveWriter aw = beginMessage(MsgType::TableData);
            session->table->saveBinary(aw);
            sendMessage(conn, std::move(aw));
            return true;
          }
          case MsgType::StatsGet: {
            msg.done();
            std::vector<StatRow> rows;
            flattenStats(session->statsGroup(), rows);
            ArchiveWriter aw = beginMessage(MsgType::StatsData);
            encodeStatsReply(aw, rows);
            sendMessage(conn, std::move(aw));
            return true;
          }
          case MsgType::CkptSave: {
            msg.done();
            ArchiveWriter image;
            session->save(image);
            CkptReply rep;
            rep.image = image.finish();
            // Attest the image bytes themselves: a replica restored
            // from them re-serializes to the same bytes, so its
            // CkptLoadAck digest must equal this one.
            rep.digest = crc64(rep.image);
            ArchiveWriter aw = beginMessage(MsgType::CkptData);
            encodeCkptReply(aw, rep);
            sendMessage(conn, std::move(aw));
            return true;
          }
          case MsgType::CkptLoad: {
            std::string bytes = decodeBlob(msg.ar);
            msg.done();
            ArchiveReader image(std::move(bytes));
            if (!image.ok()) {
                throw SimError(ErrorKind::Transport,
                               "corrupt checkpoint image: " +
                                   image.error());
            }
            try {
                // A CRC-valid image whose structure is not a session
                // checkpoint must be a typed refusal, not an
                // archive-misuse panic: it came off the wire.
                logging::ThrowOnError guard;
                session->restore(image);
            } catch (const SimError &err) {
                if (err.kind() == ErrorKind::Config)
                    throw;
                throw SimError(ErrorKind::Transport,
                               std::string("corrupt checkpoint image: ") +
                                   err.what());
            }
            CkptLoadReply rep;
            rep.cur_time = session->net->curTime();
            // Re-serialize what was just restored: this is the
            // replica's own proof that its state is bit-identical to
            // the image it was primed from.
            rep.digest = crc64(session->serializedState());
            ArchiveWriter aw = beginMessage(MsgType::CkptLoadAck);
            encodeCkptLoadReply(aw, rep);
            sendMessage(conn, std::move(aw));
            return true;
          }
          case MsgType::Bye:
            msg.done();
            return false;
          default:
            throw SimError(ErrorKind::Transport,
                           std::string("unexpected message type ") +
                               toString(msg.type));
        }
    } catch (const SimError &err) {
        sendError(conn, err);
        // A failed Hello leaves no session; anything else keeps the
        // connection alive so the client can decide what to do.
        return session != nullptr;
    }
}

} // namespace ipc
} // namespace rasim
