/**
 * @file
 * The rasim-nocd session server: hosts cycle-level networks
 * (CycleNetwork or DeflectionNetwork, serial or parallel engine)
 * behind a socket speaking the quantum-RPC protocol.
 *
 * Since protocol v2 the daemon multiplexes: every accepted connection
 * gets its own session — network, engine, shadow table — served on
 * its own thread, so N clients co-simulate against one daemon
 * concurrently. Determinism survives because sessions
 * share *nothing* stateful (the packet pool is a thread-safe slab
 * allocator whose slot indices are never part of simulation state);
 * each session remains bit-identical to a solo run against a
 * dedicated server, which is exactly what the multi-session soak
 * test asserts.
 *
 * Fairness and backpressure: a round-robin FairScheduler bounds how
 * many sessions compute at once (server.max_active) and forces a
 * session that has taken server.quota_frames consecutive compute
 * grants to yield while others wait. A hard per-batch packet quota
 * (server.max_batch_packets) refuses absurd inject batches with a
 * typed "backpressure:" ErrorReply — the client's health machinery
 * turns that into a quarantine instead of letting one client starve
 * the daemon. Admission control (server.max_sessions) rejects
 * connections beyond the concurrent cap at Hello time.
 *
 * A session never runs ahead of its client: every Step is executed
 * when it arrives and answered at once (protocol v5), because under
 * reciprocal coupling the next quantum's injections depend on this
 * quantum's deliveries.
 *
 * The server also keeps a shadow LatencyTable per session, tuned from
 * every delivery in delivery order — the same order the client-side
 * bridge observes them — so TableGet returns a table bit-identical to
 * the client's own tuned table. That readback is the differential
 * proof that remote feedback behaves exactly like in-process feedback.
 *
 * NocServer is usable two ways: run() on a background thread inside a
 * test process (hermetic differential tests), or wrapped by the
 * rasim-nocd executable for cross-process runs.
 */

#ifndef RASIM_IPC_NOCD_SERVER_HH
#define RASIM_IPC_NOCD_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ipc/frame.hh"
#include "ipc/socket.hh"
#include "sim/fault_injector.hh"

namespace rasim
{

class Config;

namespace ipc
{

struct NocServerOptions
{
    /** Listen address (unix:/path, tcp:host:port, or a bare path). */
    std::string address = "unix:/tmp/rasim-nocd.sock";
    /** Concurrent-session cap (admission control); a connection over
     *  the cap is refused with a typed ErrorReply. 0 = unlimited. */
    std::uint64_t max_sessions = 0;
    /** Exit after this many sessions have been accepted *and served
     *  to completion* (0 = serve forever). The --once tooling hook,
     *  orthogonal to the concurrent cap above. */
    std::uint64_t serve_limit = 0;
    /** Idle deadline while waiting for the next request inside a
     *  session, in ms (0 = wait forever). A client that vanished
     *  without closing its socket frees the server after this long. */
    double io_timeout_ms = 0.0;
    /** Sessions allowed to run simulation work at once (0 = auto:
     *  hardware threads minus one, at least one). */
    int max_active = 0;
    /** Consecutive compute grants one session may take while others
     *  are waiting before it is forced to the back of the queue. */
    std::uint32_t quota_frames = 64;
    /** Hard per-batch packet quota; a larger inject batch is refused
     *  with a "backpressure:" ErrorReply. 0 = unlimited. */
    std::uint64_t max_batch_packets = 1u << 20;
    /** drain(): how long to wait for live sessions to finish their
     *  in-flight work before hard-stopping, in ms (0 = forever). */
    double drain_timeout_ms = 5000.0;
    /** Session watchdog: a session that completes no frame for this
     *  long is reaped — its socket is shut down, so a client hung
     *  mid-frame (or vanished without closing) frees its seat and
     *  thread. 0 = watchdog off. Must exceed the client's longest
     *  compute gap between quanta. */
    double session_timeout_ms = 0.0;
    /** Server-side transport chaos (fault.transport.*): every session
     *  connection is wrapped in a FaultyTransport drawing from its own
     *  schedule stream (the session id), so multi-session chaos stays
     *  per-session deterministic. */
    TransportFaultOptions fault;

    /** Read the "server.*" and "fault.transport.*" keys. */
    static NocServerOptions fromConfig(const Config &cfg);
};

/** Monotonic scheduler/admission counters, exported for
 *  observability and asserted sane by the multi-session soak test. */
struct NocServerCounters
{
    std::uint64_t sessions_served = 0;   ///< connections admitted
    std::uint64_t sessions_active = 0;   ///< live right now
    std::uint64_t sessions_peak = 0;     ///< high-water mark of active
    std::uint64_t sessions_rejected = 0; ///< refused over the cap
    std::uint64_t frames = 0;            ///< requests dispatched
    std::uint64_t sched_waits = 0;       ///< grants that had to queue
    std::uint64_t quota_yields = 0;      ///< forced round-robin yields
    std::uint64_t quota_trips = 0;       ///< batches refused (quota)
    std::uint64_t sessions_reaped = 0;   ///< hung sessions watchdogged
};

class NocServer
{
  public:
    /** Binds and listens immediately, so the address is connectable
     *  the moment the constructor returns (no startup race for tests
     *  and scripts). @throws SimError on an unusable address. */
    explicit NocServer(NocServerOptions opts);

    /** Stops, joins every session thread and removes the Unix socket
     *  file (clean shutdown leaves no stale address behind). */
    ~NocServer();

    NocServer(const NocServer &) = delete;
    NocServer &operator=(const NocServer &) = delete;

    /**
     * Accept and serve sessions until stop() is called or serve_limit
     * is reached, each session on its own thread. Blocking; run it on
     * a thread when the server shares a process with the client.
     */
    void run();

    /** Ask run() to return at the next safe point (thread-safe).
     *  In-flight sessions are woken and wound down. */
    void stop();

    /** Graceful shutdown (SIGTERM): stop accepting, let every live
     *  session finish its in-flight request and close at a frame
     *  boundary — no torn frames on the wire — then return from
     *  run(). Sessions still running after drain_timeout_ms are cut
     *  loose as by stop(). Async-signal-safe (plain atomic stores),
     *  like stop(). */
    void drain();

    const std::string &address() const { return opts_.address; }

    /** Connections admitted so far (thread-safe). */
    std::uint64_t
    sessionsServed() const
    {
        return sessions_served_.load(std::memory_order_relaxed);
    }

    /** Snapshot of the scheduler/admission counters. */
    NocServerCounters counters() const;

  private:
    struct Session;
    struct Worker;

    /**
     * Round-robin compute gate: at most max_active sessions simulate
     * at once, FIFO among waiters, and a session that has taken
     * quota_frames consecutive grants while others wait is sent to
     * the back of the queue. IO never holds a grant — only network
     * advances, checkpoint work and session construction do.
     */
    class FairScheduler
    {
      public:
        void configure(int max_active, std::uint32_t quota_frames);

        /** Block until this session may compute. Sets @p waited /
         *  @p quota_yield for the counters. Waits in short timed
         *  slices so a plain store to @p stop (all stop() does — it
         *  must stay async-signal-safe) grants every waiter promptly
         *  during shutdown. Every acquire pairs with a release. */
        void acquire(std::uint64_t id, const std::atomic<bool> &stop,
                     bool &waited, bool &quota_yield);
        void release();

      private:
        std::mutex mu_;
        std::condition_variable cv_;
        std::deque<std::uint64_t> queue_;
        int active_ = 0;
        int max_active_ = 1;
        std::uint32_t quota_ = 64;
        std::uint64_t last_id_ = 0;
        std::uint32_t consecutive_ = 0;
    };

    /** RAII compute grant, bumping the wait/yield counters. */
    class Turn;

    /** Serve one connection until Bye/EOF/stop/drain (worker
     *  thread). The channel view of the Fd is wrapped in a
     *  FaultyTransport when server-side chaos is on. */
    void serveConnection(Worker &w, std::uint64_t id);

    /** Handle one request; false ends the session. */
    bool dispatch(ByteChannel &conn, Message &msg,
                  std::unique_ptr<Session> &session, std::uint64_t id);

    /** Serve whatever requests were already buffered on the socket
     *  when the drain landed, then let the session close at its frame
     *  boundary. Best-effort: never throws. */
    void drainTail(ByteChannel &conn, std::unique_ptr<Session> &session,
                   std::uint64_t id);

    /** Join finished workers; with @p all also join the live ones. */
    void reapWorkers(bool all);

    /** Watchdog sweep: shut down the socket of every session that
     *  has not completed a frame for session_timeout_ms. */
    void reapHung();

    /** Wait (up to drain_timeout_ms) for live sessions to wind down
     *  at their frame boundaries, then hard-stop the rest. */
    void drainSessions();

    NocServerOptions opts_;
    Fd listener_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> drain_{false};
    /** Set with either stop_ or drain_: wakes blocking accepts and
     *  session reads promptly (they poll it in timed slices). */
    std::atomic<bool> wake_{false};
    FairScheduler sched_;

    std::mutex workers_mu_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::atomic<std::uint64_t> sessions_served_{0};
    std::atomic<std::uint64_t> sessions_active_{0};
    std::atomic<std::uint64_t> sessions_peak_{0};
    std::atomic<std::uint64_t> sessions_rejected_{0};
    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> sched_waits_{0};
    std::atomic<std::uint64_t> quota_yields_{0};
    std::atomic<std::uint64_t> quota_trips_{0};
    std::atomic<std::uint64_t> sessions_reaped_{0};
};

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_NOCD_SERVER_HH
