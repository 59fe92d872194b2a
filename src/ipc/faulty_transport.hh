/**
 * @file
 * FaultyTransport: a ByteChannel decorator that injects deterministic
 * transport faults into the quantum-RPC byte stream, driven by a
 * TransportFaultSchedule (the "fault.transport.*" keys). Interposable
 * on both sides of a connection:
 *
 *   client side   wraps the RemoteNetwork's connection, so every
 *                 client-observed failure path (torn frame, short
 *                 read, CRC corruption, stalled socket, mid-quantum
 *                 disconnect) is exercisable on demand;
 *   server side   wraps a rasim-nocd session's connection, so clients
 *                 experience a chaotic *server* (torn replies, dropped
 *                 sessions) — the mid-frame-kill scenario without
 *                 actually killing the daemon.
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
 * force one specific fault on the next operation — the unit-test hook
 * for exercising one failure path in isolation.
 */

#ifndef RASIM_IPC_FAULTY_TRANSPORT_HH
#define RASIM_IPC_FAULTY_TRANSPORT_HH

#include <atomic>
#include <cstddef>
#include <memory>

#include "ipc/socket.hh"
#include "sim/fault_injector.hh"

namespace rasim
{
namespace ipc
{

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

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_FAULTY_TRANSPORT_HH
