/**
 * @file
 * The rasim-nocd session server: hosts detailed networks (the
 * Hello's noc.router picks the router organisation, serial or
 * parallel engine) behind a socket speaking the quantum-RPC protocol.
 *
 * Every accepted connection gets its own session — one hosted network
 * and its engine — served on its own thread, so N clients co-simulate
 * against one daemon concurrently. Determinism survives because
 * sessions share *nothing* stateful (the packet pool is a thread-safe
 * slab allocator whose slot indices are never part of simulation
 * state); each session remains bit-identical to a solo run against a
 * dedicated server, which is exactly what the multi-session soak test
 * asserts. No compute gate: each session computes on its own thread
 * as soon as its request arrives.
 *
 * A session never runs ahead of its client: every Step is executed
 * when it arrives and answered at once (protocol v5), because under
 * reciprocal coupling the next quantum's injections depend on this
 * quantum's deliveries. The server keeps no copy of the client's
 * latency table: it returns the deliveries in delivery order and the
 * client tunes its own table from them.
 *
 * Nothing here outlives a lost connection on purpose: the client's
 * recovery lineage (base image plus journal replay) rebuilds a session
 * bit for bit on any connection, so the server has no admission cap,
 * session watchdog or graceful drain. Wire input is bounded by the
 * frame cap (max_frame_bytes) and the decoders' element-count checks,
 * and every refused request is a typed ErrorReply.
 *
 * NocServer is usable two ways: run() on a background thread inside a
 * test process (hermetic differential tests), or wrapped by the
 * rasim-nocd executable for cross-process runs. Only the first may pass
 * a ChannelDecorator: the tests' server-side chaos wraps each session's
 * connection in the fault injector of tests/ipc/faulty_transport.hh,
 * one fault stream per session id.
 */

#ifndef RASIM_IPC_NOCD_SERVER_HH
#define RASIM_IPC_NOCD_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ipc/frame.hh"
#include "ipc/socket.hh"
#include "sim/parallel_engine.hh"

namespace rasim
{
namespace ipc
{

struct NocServerOptions
{
    /** Listen address (unix:/path, tcp:host:port, or a bare path). */
    std::string address = "unix:/tmp/rasim-nocd.sock";
    /** Work-rule threshold of each session's ParallelEngine. No flag:
     *  rasim-nocd keeps the default; tests pass 0 to pool every
     *  phase of a mesh too small to reach it. */
    std::size_t pool_min_active_per_slot =
        ParallelEngine::default_min_active_per_slot;
};

class NocServer
{
  public:
    /** Binds and listens immediately, so the address is connectable
     *  the moment the constructor returns (no startup race for tests
     *  and scripts). @throws SimError on an unusable address.
     *  @p decorate (tests only) wraps each session's connection,
     *  given the session id; it runs on session threads. */
    explicit NocServer(NocServerOptions opts,
                       ChannelDecorator decorate = {});

    /** Stops, joins every session thread and removes the Unix socket
     *  file (clean shutdown leaves no stale address behind). */
    ~NocServer();

    NocServer(const NocServer &) = delete;
    NocServer &operator=(const NocServer &) = delete;

    /**
     * Accept and serve sessions until stop() is called, each session
     * on its own thread. Blocking; run it on a thread when the server
     * shares a process with the client.
     */
    void run();

    /** Ask run() to return at the next safe point (thread-safe and
     *  async-signal-safe: a plain atomic store). In-flight sessions
     *  are woken and wound down. */
    void stop();

    const std::string &address() const { return opts_.address; }

    /** Connections accepted so far (thread-safe). */
    std::uint64_t
    sessionsServed() const
    {
        return sessions_served_.load(std::memory_order_relaxed);
    }

  private:
    struct Session;
    struct Worker;

    /** Serve one connection until Bye/EOF/stop (worker thread). The
     *  channel view of the Fd goes through the decorator, if any. */
    void serveConnection(Worker &w, std::uint64_t id);

    /** Handle one request; false ends the session. */
    bool dispatch(ByteChannel &conn, Message &msg,
                  std::unique_ptr<Session> &session);

    /** Join finished workers; with @p all also join the live ones. */
    void reapWorkers(bool all);

    NocServerOptions opts_;
    const ChannelDecorator decorate_;
    Fd listener_;
    /** Set by stop(); wakes blocking accepts and session reads
     *  promptly (they poll it in timed slices). */
    std::atomic<bool> stop_{false};

    std::mutex workers_mu_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::atomic<std::uint64_t> sessions_served_{0};
};

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_NOCD_SERVER_HH
