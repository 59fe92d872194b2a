/**
 * @file
 * Deterministic, config-driven fault injection at the network-model
 * boundary. The injector is a transparent NetworkModel decorator the
 * full system interposes between the co-simulation bridge and the
 * detailed backend, so every health guard is exercisable on demand:
 *
 *  - drop:   swallow every Nth injected packet (breaks conservation);
 *  - delay:  hold every Nth packet for extra cycles before forwarding;
 *  - stall:  wedge one router/ejection port via setNodeStalled()
 *            (deadlock/livelock for the progress watchdog);
 *  - freeze: stop advancing the backend inside a tick window (no
 *            progress while packets are in flight);
 *  - poison: inflate the reported latency of every Nth delivery
 *            (corrupts the reciprocal feedback — divergence guard).
 *
 * All faults are counter- or tick-keyed, never randomised, so a
 * faulty run is exactly reproducible.
 *
 * This file also holds the *transport* fault plan
 * (TransportFaultOptions + TransportFaultSchedule, the "fault.
 * transport.*" keys): which byte-level faults the ipc FaultyTransport
 * decorator injects into the remote backend's socket traffic, and at
 * which operations. The schedule draws from its own seeded Rng stream
 * in operation order, so transport chaos is as reproducible as the
 * counter-keyed network faults above.
 */

#ifndef RASIM_SIM_FAULT_INJECTOR_HH
#define RASIM_SIM_FAULT_INJECTOR_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "noc/network_model.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace rasim
{

/** Which faults fire and when. */
struct FaultOptions
{
    /** Master switch; when false the injector is never interposed. */
    bool enabled = false;

    /** Drop every Nth injected packet (0 = off). */
    std::uint64_t drop_every = 0;

    /** Hold every Nth injected packet (0 = off) ... */
    std::uint64_t delay_every = 0;
    /** ... for this many cycles past its injection tick. */
    Tick delay_cycles = 64;

    /** Node to wedge via setNodeStalled() (-1 = off). */
    int stall_node = -1;
    /** Engage the stall at the first boundary reaching this tick. */
    Tick stall_from = 0;
    /** Release the stall at this tick (0 = never release). */
    Tick stall_until = 0;

    /** Stop advancing the backend from this tick on (0 = off). */
    Tick freeze_from = 0;
    /** Resume advancing at this tick (0 = never resume). */
    Tick freeze_until = 0;

    /** Inflate every Nth delivery's reported latency (0 = off) ... */
    std::uint64_t poison_every = 0;
    /** ... by this many cycles. */
    Tick poison_offset = 10000;

    void
    keys(config::Binder &v)
    {
        v("fault.enabled", enabled);
        v("fault.drop_every", drop_every);
        v("fault.delay_every", delay_every);
        v("fault.delay_cycles", delay_cycles);
        v("fault.stall_node", stall_node);
        v("fault.stall_from", stall_from);
        v("fault.stall_until", stall_until);
        v("fault.freeze_from", freeze_from);
        v("fault.freeze_until", freeze_until);
        v("fault.poison_every", poison_every);
        v("fault.poison_offset", poison_offset);
    }

    void validate() const;
};

/**
 * Which transport faults a FaultyTransport channel decorator may
 * inject. Probabilities
 * are per transport operation (one frame send or one frame-piece
 * receive), drawn from a dedicated seeded Rng stream in operation
 * order, so a faulty run is exactly reproducible — the same contract
 * the network-level FaultOptions above keep.
 */
struct TransportFaultOptions
{
    /** Master switch; when false no channel is ever decorated. */
    bool enabled = false;

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

    void
    keys(config::Binder &v)
    {
        v("fault.transport.enabled", enabled);
        v("fault.transport.seed", seed);
        v("fault.transport.torn_frame", torn_frame);
        v("fault.transport.short_read", short_read);
        v("fault.transport.corrupt", corrupt);
        v("fault.transport.delay", delay);
        v("fault.transport.delay_ms", delay_ms);
        v("fault.transport.stall", stall);
        v("fault.transport.stall_ms", stall_ms);
        v("fault.transport.disconnect", disconnect);
        v("fault.transport.start_op", start_op);
        v("fault.transport.max_faults", max_faults);
        v("fault.transport.min_gap_ops", min_gap_ops);
    }

    void validate() const;
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

class FaultInjector final : public noc::NetworkModel
{
  public:
    /** Decorate @p inner; does not take ownership. */
    FaultInjector(noc::NetworkModel &inner, FaultOptions opts);

    // NetworkModel facade: forwards to the inner model, applying the
    // configured faults.
    void inject(const noc::PacketPtr &pkt) override;
    void advanceTo(Tick t) override;
    void setDeliveryHandler(DeliveryHandler handler) override;
    void setEngine(StepEngine *engine) override;
    Tick curTime() const override;
    bool idle() const override;
    std::size_t numNodes() const override;
    std::optional<Accounting> accounting() const override;
    bool setNodeStalled(std::size_t node, bool stalled) override;

    const FaultOptions &options() const { return opts_; }
    noc::NetworkModel &inner() { return inner_; }

    /** @name Fault activity counters (deterministic) */
    /// @{
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t delayed() const { return delayed_; }
    std::uint64_t poisoned() const { return poisoned_; }
    /// @}

    /** Checkpoint fault counters and held (delayed) packets. */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar);

  private:
    void onInnerDelivery(const noc::PacketPtr &pkt);
    void releaseHeld(Tick t);

    noc::NetworkModel &inner_;
    FaultOptions opts_;
    DeliveryHandler handler_;

    /** Delayed packets waiting for their release tick. */
    std::vector<std::pair<Tick, noc::PacketPtr>> held_;

    std::uint64_t received_ = 0;
    std::uint64_t forwarded_up_ = 0;
    std::uint64_t deliveries_seen_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t delayed_ = 0;
    std::uint64_t poisoned_ = 0;
    bool stall_engaged_ = false;
};

} // namespace rasim

#endif // RASIM_SIM_FAULT_INJECTOR_HH
