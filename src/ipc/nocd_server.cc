#include "ipc/nocd_server.hh"

#include <utility>
#include <vector>

#include "ipc/protocol.hh"
#include "noc/detailed_network.hh"
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
 * One hosted network. Sessions share nothing mutable with each other,
 * which is what keeps every concurrent session bit-identical to a solo
 * run against a dedicated server.
 */
struct NocServer::Session
{
    Session(const HelloRequest &req, std::size_t pool_min_active)
        : hello(req)
    {
        sim = std::make_unique<Simulation>();
        net = noc::makeDetailedNetwork(*sim, "net", req.params);
        if (req.engine_workers > 0) {
            engine = std::make_unique<ParallelEngine>(
                req.engine_workers, pool_min_active);
            net->setEngine(engine.get());
        }
        // Deliveries go back to the client in delivery order, which
        // is the order its bridge tunes its latency table in.
        net->setDeliveryHandler([this](const noc::PacketPtr &pkt) {
            deliveries.push_back(pkt);
        });

        // Reconnect after a client-side quarantine: catch a fresh
        // network up to the client's clock so injections at the
        // current quantum are not "in the past".
        if (req.start_tick > 0)
            net->advanceTo(req.start_tick);
        deliveries.clear();
    }

    /** The hosted network's state-shaping knobs. */
    config::Record
    shape() const
    {
        return config::stateShaping(config::record(hello.params));
    }

    void
    save(ArchiveWriter &aw) const
    {
        aw.beginSection("nocd");
        config::putRecord(aw, shape());
        aw.putU64(net->curTime());
        aw.endSection();
        saveStats(aw, *net);
        net->save(aw);
    }

    void
    restore(ArchiveReader &ar)
    {
        ar.expectSection("nocd");
        std::string key = config::firstDifference(config::getRecord(ar),
                                                  shape());
        ar.getU64(); // informational tick
        ar.endSection();
        if (!key.empty()) {
            throw SimError(ErrorKind::Config,
                           "checkpoint was taken on a different hosted "
                           "network (" + key + ")");
        }
        restoreStats(ar, *net);
        net->restore(ar);
        // An image from another build can carry more state after the
        // fabric (a v8 server appended its shadow latency table).
        // Restoring it would re-serialize shorter, so the client's
        // attestation would fail every retry: refuse it outright.
        if (!ar.atEnd()) {
            throw SimError(ErrorKind::Config,
                           "checkpoint image has bytes after its last "
                           "section (taken by another build?)");
        }
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
    std::unique_ptr<noc::DetailedNetwork> net;
    std::vector<noc::PacketPtr> deliveries;
};

/** One session thread. The Fd lives here so its lifetime matches the
 *  thread that reads from it. */
struct NocServer::Worker
{
    Fd conn;
    std::thread thread;
    std::atomic<bool> done{false};
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
sendError(ByteChannel &conn, const SimError &err)
{
    ArchiveWriter aw = beginMessage(MsgType::ErrorReply);
    encodeError(aw, err.kind(), err.what());
    sendMessage(conn, std::move(aw));
}

} // namespace

NocServer::NocServer(NocServerOptions opts, ChannelDecorator decorate)
    : opts_(std::move(opts)), decorate_(std::move(decorate))
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
    // Only the store: stop() is called from signal handlers, so it
    // must stay async-signal-safe (no locks, no notifies). Waiters
    // poll the flag in timed slices.
    stop_.store(true, std::memory_order_relaxed);
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
    while (!stop_.load(std::memory_order_relaxed)) {
        Fd conn = acceptOn(listener_, 0.0, &stop_);
        if (!conn.valid())
            continue; // stop requested
        reapWorkers(false);

        std::uint64_t id =
            sessions_served_.fetch_add(1, std::memory_order_relaxed) + 1;
        auto owned = std::make_unique<Worker>();
        Worker *w = owned.get();
        w->conn = std::move(conn);
        {
            std::lock_guard<std::mutex> lk(workers_mu_);
            workers_.push_back(std::move(owned));
        }
        w->thread = std::thread([this, w, id] {
            try {
                serveConnection(*w, id);
            } catch (const SimError &err) {
                // A sick or vanished client must not take the server
                // down; drop the session and keep serving the rest.
                // (A read cut short by stop() is the wind-down
                // working, not news.)
                if (!stop_.load(std::memory_order_relaxed)) {
                    warn("nocd session ", id,
                         " ended abnormally: ", err.what());
                }
            }
            // The Fd itself is reclaimed later (reapWorkers); shut it
            // down now so the peer sees EOF the moment the session
            // ends instead of when the accept loop next turns over.
            shutdownFd(w->conn);
            w->done.store(true, std::memory_order_release);
        });
    }
    reapWorkers(true);
}

void
NocServer::serveConnection(Worker &w, std::uint64_t id)
{
    std::unique_ptr<ByteChannel> owned =
        std::make_unique<FdChannel>(&w.conn);
    if (decorate_)
        owned = decorate_(std::move(owned), id);
    ByteChannel &conn = *owned;

    std::unique_ptr<Session> session;
    while (!stop_.load(std::memory_order_relaxed)) {
        std::optional<Message> msg = recvMessage(conn, 0.0, &stop_);
        if (!msg)
            return; // clean EOF: the client is gone
        if (!dispatch(conn, *msg, session))
            return;
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
            {
                // A Hello the session cannot be built from is this
                // client's Config error, not the end of the daemon
                // and every other session on it.
                logging::ThrowOnError guard;
                session = std::make_unique<Session>(
                    req, opts_.pool_min_active_per_slot);
            }
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
          case MsgType::StatsGet: {
            msg.done();
            std::vector<StatRow> rows;
            flattenStats(*session->net, rows);
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
