/**
 * @file
 * FaultyTransport: the transport chaos fixture. A ByteChannel
 * decorator that injects deterministic transport faults into the
 * quantum-RPC byte stream, driven by a TransportFaultSchedule. It is
 * test code: production builds carry no fault injector and no chaos
 * setting. Tests install it through the ipc::ChannelDecorator seam,
 * on either side of a connection:
 *
 *   client side   RemoteNetwork's (or FullSystem's) last constructor
 *                 argument wraps every connection the client opens, so
 *                 every client-observed failure path (torn frame,
 *                 short read, CRC corruption, stalled socket,
 *                 mid-quantum disconnect) is exercisable on demand;
 *                 the decorator shares one schedule across reconnects
 *                 (clientChaos());
 *   server side   NocServer's last constructor argument wraps each
 *                 session's connection, so clients experience a
 *                 chaotic *server* (torn replies, dropped sessions) —
 *                 the mid-frame-kill scenario without actually killing
 *                 the daemon; each session draws its own stream of one
 *                 seed (serverChaos()).
 *
 * Faults map onto the frame layer's failure taxonomy:
 *
 *   TornFrame    send: part of the frame, then the connection dies
 *                recv: payload truncated, then EOF
 *   ShortRead    send: part of the 12-byte header, then death
 *                recv: header truncated, then EOF
 *   Corrupt      one payload byte flipped; the archive CRC32 trips
 *                on the receiving side
 *   Delay        send delayed by delay_ms, then completes normally
 *   Stall        recv burns stall_ms, then fails with a Timeout
 *   Disconnect   connection dropped cold before the send
 *   Oversize     (targeted only) header length forged past
 *                max_frame_bytes
 *
 * Every injected failure also closes the channel, mirroring what the
 * real faults do to a session: the stream can no longer be trusted to
 * be in frame sync, so recovery must open a fresh connection.
 *
 * Besides the probability schedule, failNextSend()/failNextRecv()
 * force one specific fault on the next operation — the hook for
 * exercising one failure path in isolation.
 *
 * The TransportFaultSchedule draws from its own seeded Rng stream in
 * operation order, so transport chaos is exactly reproducible.
 */

#ifndef RASIM_IPC_FAULTY_TRANSPORT_HH
#define RASIM_IPC_FAULTY_TRANSPORT_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "ipc/socket.hh"
#include "sim/rng.hh"

namespace rasim
{
namespace ipc
{

/**
 * Which transport faults a FaultyTransport channel decorator may
 * inject. Probabilities are per transport operation (one frame send or
 * one frame-piece receive), drawn from a dedicated seeded Rng stream
 * in operation order, so a faulty run is exactly reproducible. All
 * zero (the default) injects only the forced faults.
 */
struct TransportFaultOptions
{
    /** Seed of the fault schedule's private Rng stream. */
    std::uint64_t seed = 0x7a5;

    /** Tear a frame: close after part of the payload (send side) or
     *  truncate the payload mid-read (receive side). */
    double torn_frame = 0.0;
    /** Short read: close inside the 12-byte frame header. */
    double short_read = 0.0;
    /** Flip one payload byte, so the archive CRC32 check trips. */
    double corrupt = 0.0;
    /** Delay a write by delay_ms before letting it through. */
    double delay = 0.0;
    double delay_ms = 2.0;
    /** Stall a read: burn stall_ms, then fail with a Timeout. */
    double stall = 0.0;
    double stall_ms = 2.0;
    /** Drop the connection cold before a send (mid-quantum loss). */
    double disconnect = 0.0;

    /** Arm the schedule only from this operation ordinal on (lets a
     *  handshake complete before the chaos starts). */
    std::uint64_t start_op = 0;
    /** Stop injecting after this many faults in total (0 = no cap). */
    std::uint64_t max_faults = 0;
    /** Guaranteed fault-free operations after each fault, so a
     *  bounded retry budget can always mask the fault. */
    std::uint64_t min_gap_ops = 8;
};

/** The faults a transport schedule can inject. */
enum class TransportFaultKind : std::uint8_t
{
    None = 0,
    TornFrame,  ///< peer closes inside the payload
    ShortRead,  ///< peer closes inside the frame header
    Corrupt,    ///< one payload byte flipped (CRC trip)
    Delay,      ///< write delayed by delay_ms
    Stall,      ///< read burns stall_ms then times out
    Disconnect, ///< connection dropped before the send
    Oversize,   ///< length prefix forged past max_frame_bytes
};
constexpr std::size_t transport_fault_kinds = 8;

/** Render a fault kind for diagnostics. */
const char *toString(TransportFaultKind kind);

/**
 * The deterministic schedule deciding which transport operation
 * suffers which fault. One draw per operation, in operation order,
 * from a private seeded Rng — two runs with the same seed inject
 * the same faults at the same operations. A single schedule can be
 * shared across successive connections of one client (the operation
 * counter keeps running), which is what makes a whole chaos run
 * reproducible across reconnects.
 */
class TransportFaultSchedule
{
  public:
    TransportFaultSchedule() = default;
    /** @p stream separates independent schedules of one seed (the
     *  server gives each session its own stream). */
    explicit TransportFaultSchedule(const TransportFaultOptions &opts,
                                    std::uint64_t stream = 1);

    const TransportFaultOptions &options() const { return opts_; }

    /** Fault (or None) for the next frame send. */
    TransportFaultKind nextSend();
    /** Fault (or None) for the next frame-piece receive; @p header
     *  tells whether the read is the 12-byte frame header. */
    TransportFaultKind nextRecv(bool header);

    /** Record a fault injected outside the probability draw (the
     *  failNext*() test hooks), so the activity counters cover every
     *  injected fault regardless of how it was requested. */
    void noteForced(TransportFaultKind kind);

    /** @name Deterministic activity counters */
    /// @{
    std::uint64_t ops() const { return ops_; }
    std::uint64_t faults() const { return faults_; }
    std::uint64_t
    count(TransportFaultKind kind) const
    {
        return by_kind_[static_cast<std::size_t>(kind)];
    }
    /// @}

  private:
    /** One uniform draw against the cumulative probability bands of
     *  the kinds applicable to this operation. */
    TransportFaultKind
    draw(const std::pair<TransportFaultKind, double> *bands,
         std::size_t n);

    TransportFaultOptions opts_;
    Rng rng_{0x7a5, 1};
    std::uint64_t ops_ = 0;
    std::uint64_t faults_ = 0;
    std::uint64_t since_fault_ = ~std::uint64_t(0);
    std::array<std::uint64_t, transport_fault_kinds> by_kind_{};
};


class FaultyTransport final : public ByteChannel
{
  public:
    /**
     * Decorate @p inner with faults drawn from @p schedule, which the
     * caller owns and may share across successive connections (the
     * client's whole chaos run draws from one schedule, so the fault
     * sequence is independent of how often it reconnects).
     */
    FaultyTransport(std::unique_ptr<ByteChannel> inner,
                    TransportFaultSchedule *schedule);

    /** Decorate @p inner with a schedule owned by this channel (the
     *  server gives each session its own stream of one seed). */
    FaultyTransport(std::unique_ptr<ByteChannel> inner,
                    const TransportFaultOptions &opts,
                    std::uint64_t stream = 1);

    void send(const void *data, std::size_t len) override;
    std::size_t recv(void *data, std::size_t len, double timeout_ms,
                     const std::atomic<bool> *abort) override;
    bool valid() const override { return inner_->valid(); }
    void close() override { inner_->close(); }

    /** Force one specific fault on the next send / recv, bypassing
     *  the probability schedule (targeted unit tests). */
    void failNextSend(TransportFaultKind kind) { forced_send_ = kind; }
    void failNextRecv(TransportFaultKind kind) { forced_recv_ = kind; }

    const TransportFaultSchedule &schedule() const { return *sched_; }
    ByteChannel &inner() { return *inner_; }

  private:
    [[noreturn]] void die(TransportFaultKind kind, const char *detail);

    std::unique_ptr<ByteChannel> inner_;
    TransportFaultSchedule owned_sched_;
    TransportFaultSchedule *sched_;
    TransportFaultKind forced_send_ = TransportFaultKind::None;
    TransportFaultKind forced_recv_ = TransportFaultKind::None;
};

/**
 * Client-side chaos: a decorator wrapping every connection the client
 * opens in a FaultyTransport drawing from @p schedule, which the caller
 * owns and keeps alive for the client's life. The connection ordinal is
 * ignored: one schedule runs across every reconnect. When @p last is
 * given it is pointed at the newest wrapped channel, so a test can
 * force one specific fault on the live connection.
 */
ChannelDecorator clientChaos(TransportFaultSchedule *schedule,
                             FaultyTransport **last = nullptr);

/**
 * Server-side chaos: a decorator giving each session's connection its
 * own schedule of @p opts, with the session id as the stream, so
 * concurrent sessions draw independent, individually deterministic
 * fault sequences. It captures only a copy of @p opts, so it is safe
 * to call on concurrent session threads.
 */
ChannelDecorator serverChaos(const TransportFaultOptions &opts);

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_FAULTY_TRANSPORT_HH
