/**
 * @file
 * The abstraction boundary of reciprocal abstraction: every network
 * implementation — analytical, cycle-level, coprocessor-accelerated —
 * exposes this interface, so the full-system side never knows which
 * fidelity it is coupled to.
 */

#ifndef RASIM_NOC_NETWORK_MODEL_HH
#define RASIM_NOC_NETWORK_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "noc/packet.hh"
#include "sim/types.hh"

namespace rasim
{

class StepEngine;

namespace noc
{

class NetworkModel
{
  public:
    /**
     * Invoked once per fully received packet, during advanceTo(), with
     * timing fields (enter/deliver/hops) filled in. deliver_tick is
     * always <= the advanceTo() horizon.
     */
    using DeliveryHandler = std::function<void(const PacketPtr &)>;

    virtual ~NetworkModel() = default;

    /**
     * Hand a packet to the network. pkt->inject_tick may be at or
     * after curTime(); earlier ticks are accepted (quantum-overlapped
     * co-simulation delivers late on purpose) and treated as "now",
     * with the slip accounted as source queueing.
     */
    virtual void inject(const PacketPtr &pkt) = 0;

    /** Simulate up to (and including deliveries at) tick @p t. */
    virtual void advanceTo(Tick t) = 0;

    /**
     * True when the co-simulation bridge may run this model beside
     * the event simulation inside a quantum: one thread other than
     * the host's then calls inject(), stepTo() and advanceTo(), and
     * nothing else of the model is touched until the quantum's final
     * advanceTo() returns. Only in-process cycle-level models say yes;
     * analytical and remote models and every decorator keep the
     * host-then-network order.
     */
    virtual bool pipelinable() const { return false; }

    /**
     * Simulate up to tick @p t as one piece of a longer advance that
     * an advanceTo() ends. Work a model does once per advanceTo()
     * (the soa kernel's stat flush and node-range re-cut) waits for
     * that final call, so a quantum cut into pieces ends in the same
     * state as one advanceTo(). Only called when pipelinable().
     */
    virtual void stepTo(Tick t) { advanceTo(t); }

    virtual void setDeliveryHandler(DeliveryHandler handler) = 0;

    /**
     * Install the execution engine running this model's data-parallel
     * phases (nullptr restores serial execution). The model does not
     * own the engine; it must outlive the model's last advanceTo().
     * Models without parallel phases (analytical networks) ignore it —
     * the co-simulation bridge can therefore install an engine on any
     * backend fidelity.
     */
    virtual void setEngine(StepEngine *engine) { (void)engine; }

    /** Current internal time of the network. */
    virtual Tick curTime() const = 0;

    /** True when no packet is queued, in flight or unreassembled. */
    virtual bool idle() const = 0;

    /** Number of endpoints (nodes) the network connects. */
    virtual std::size_t numNodes() const = 0;

    /**
     * Packet bookkeeping for machine-checked conservation: a healthy
     * model satisfies injected == delivered + in_flight at any point
     * where advanceTo() is not running. A model that loses packets
     * (or a fault injector that drops them) breaks the identity —
     * exactly what the health monitor's conservation guard checks.
     */
    struct Accounting
    {
        /** Packets accepted through inject(). */
        std::uint64_t injected = 0;
        /** Packets reported through the delivery handler. */
        std::uint64_t delivered = 0;
        /** Packets accepted but not yet delivered, derived from the
         *  model's real queues/fabric state where possible. */
        std::uint64_t in_flight = 0;
    };

    /**
     * Report packet accounting, or nullopt when the model cannot be
     * audited (conservation checks are then skipped).
     */
    virtual std::optional<Accounting> accounting() const
    {
        return std::nullopt;
    }
};

} // namespace noc
} // namespace rasim

#endif // RASIM_NOC_NETWORK_MODEL_HH
