/**
 * @file
 * Minimal blocking-socket transport for the out-of-process NoC
 * backend: Unix-domain and TCP stream sockets behind one address
 * syntax, with deadline-bounded reads and cooperative abort.
 *
 * Addresses:
 *
 *   unix:/path/to/socket   Unix-domain stream socket
 *   tcp:host:port          TCP (IPv4) stream socket
 *   /path/to/socket        shorthand for unix:
 *
 * Every failure surfaces as a typed SimError (ErrorKind::Transport for
 * peer/IO trouble, ErrorKind::Timeout for an expired deadline,
 * ErrorKind::Config for an unusable address) — never a crash or a
 * hang, which is what lets the co-simulation health machinery map
 * transport faults onto its quarantine/fallback policy.
 */

#ifndef RASIM_IPC_SOCKET_HH
#define RASIM_IPC_SOCKET_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

namespace rasim
{
namespace ipc
{

/** RAII file descriptor (move-only). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    Fd(Fd &&other) noexcept : fd_(other.release()) {}

    Fd &
    operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.release();
        }
        return *this;
    }

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    int
    release()
    {
        int fd = fd_;
        fd_ = -1;
        return fd;
    }

    /** Close (idempotent). */
    void reset();

  private:
    int fd_ = -1;
};

/** True when @p addr parses as a supported socket address. */
bool validAddress(const std::string &addr);

/**
 * Bind and listen on @p addr. A *stale* pre-existing Unix socket file
 * (a previous server that died without cleanup; probed with a test
 * connect) is unlinked first; a live server on the path is an error.
 * @throws SimError{Config} on an unusable address,
 *         SimError{Transport} on bind/listen failure or when a live
 *         server already answers on the address.
 */
Fd listenOn(const std::string &addr);

/** Remove the Unix socket file behind @p addr, if any (clean server
 *  shutdown; no-op for TCP or unparseable addresses). */
void unlinkAddress(const std::string &addr);

/**
 * Accept one connection, waiting up to @p timeout_ms (0 = forever).
 * Returns an invalid Fd when @p stop became true or the timeout
 * expired; throws SimError{Transport} when the listening socket died.
 */
Fd acceptOn(const Fd &listener, double timeout_ms,
            const std::atomic<bool> *stop = nullptr);

/**
 * Connect to @p addr, retrying until @p timeout_ms expires (a server
 * that is still starting up is not an error until the deadline; 0 =
 * a single attempt).
 * @throws SimError{Transport} when the deadline expires.
 */
Fd connectTo(const std::string &addr, double timeout_ms);

/**
 * Write all @p len bytes. @throws SimError{Transport} on a dead peer
 * (EPIPE/ECONNRESET are reported, never raised as SIGPIPE).
 */
void sendAll(const Fd &fd, const void *data, std::size_t len);

/**
 * How long a receive that finds no data spins (non-blocking polls and
 * sched_yield) before it blocks in poll(). A quantum's reply usually
 * lands within this window, and picking it up while still running
 * saves waking a halted CPU, which costs tens of microseconds on a
 * virtualised host. Chosen by a sweep on the remote co-simulation
 * benchmark; see DESIGN.md.
 */
constexpr double recv_spin_us = 200.0;

/**
 * Read exactly @p len bytes, honouring a wall-clock deadline and a
 * cooperative abort flag (polled between reads). Each wait for more
 * bytes first spins for up to recv_spin_us, then blocks.
 *
 * @param timeout_ms Deadline for the whole read (0 = no deadline).
 * @param abort When non-null and set, the read stops early.
 * @return bytes read before a clean EOF (== len on success; a short
 *         count means the peer closed mid-object — the caller decides
 *         whether that is a clean end-of-session or a torn frame).
 * @throws SimError{Timeout} on deadline expiry or abort,
 *         SimError{Transport} on IO errors.
 */
std::size_t recvUpTo(const Fd &fd, void *data, std::size_t len,
                     double timeout_ms,
                     const std::atomic<bool> *abort = nullptr);

/** Shut both directions of @p fd down without closing the descriptor:
 *  the peer (and any thread blocked reading it) sees EOF immediately.
 *  The daemon uses it to end a session at once while the Fd itself
 *  is reclaimed later. No-op on an invalid Fd. */
void shutdownFd(const Fd &fd);

/**
 * A byte stream the framing layer reads and writes through. The plain
 * implementation (FdChannel) forwards to the socket primitives above;
 * decorators (ipc::FaultyTransport) interpose to inject transport
 * faults deterministically. Semantics mirror sendAll/recvUpTo: send()
 * writes everything or throws; recv() returns the bytes read before a
 * clean EOF and throws on IO errors, deadline expiry or abort.
 */
class ByteChannel
{
  public:
    virtual ~ByteChannel() = default;

    virtual void send(const void *data, std::size_t len) = 0;
    virtual std::size_t recv(void *data, std::size_t len,
                             double timeout_ms,
                             const std::atomic<bool> *abort) = 0;
    /** True while the underlying connection is usable. */
    virtual bool valid() const = 0;
    /** Tear the connection down (idempotent). */
    virtual void close() = 0;
};

/** ByteChannel over an Fd: owning (client connections) or borrowing
 *  (server connections, whose Fd lives with the worker thread). */
class FdChannel final : public ByteChannel
{
  public:
    /** Own @p fd; close() resets it. */
    explicit FdChannel(Fd fd) : owned_(std::move(fd)), fd_(&owned_) {}
    /** Borrow @p fd; close() shuts it down but the owner still
     *  closes the descriptor. */
    explicit FdChannel(const Fd *borrowed) : fd_(borrowed) {}

    void send(const void *data, std::size_t len) override;
    std::size_t recv(void *data, std::size_t len, double timeout_ms,
                     const std::atomic<bool> *abort) override;
    bool valid() const override { return fd_->valid(); }
    void close() override;

    const Fd &fd() const { return *fd_; }

  private:
    Fd owned_;
    const Fd *fd_;
};

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_SOCKET_HH
