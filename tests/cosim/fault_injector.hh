/**
 * @file
 * Test fixture: a deterministic NetworkModel decorator that the health
 * tests put between a QuantumBridge and its detailed backend, so the
 * guards see a sick backend on demand:
 *
 *  - drop:   swallow every Nth injected packet (breaks conservation);
 *  - delay:  hold every Nth packet for extra cycles before forwarding;
 *  - freeze: stop advancing the backend inside a tick window (no
 *            progress while packets are in flight: the watchdog);
 *  - poison: inflate the reported latency of every Nth delivery
 *            (corrupts the reciprocal feedback: the divergence guard).
 *
 * All faults are counter- or tick-keyed, never randomised, so a faulty
 * run is exactly reproducible.
 */

#ifndef RASIM_TESTS_COSIM_FAULT_INJECTOR_HH
#define RASIM_TESTS_COSIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "noc/network_model.hh"
#include "sim/types.hh"

namespace rasim
{

/** Which faults fire and when. */
struct FaultOptions
{
    /** Drop every Nth injected packet (0 = off). */
    std::uint64_t drop_every = 0;

    /** Hold every Nth injected packet (0 = off) ... */
    std::uint64_t delay_every = 0;
    /** ... for this many cycles past its injection tick. */
    Tick delay_cycles = 64;

    /** Stop advancing the backend from this tick on (0 = off). */
    Tick freeze_from = 0;
    /** Resume advancing at this tick (0 = never resume). */
    Tick freeze_until = 0;

    /** Inflate every Nth delivery's reported latency (0 = off) ... */
    std::uint64_t poison_every = 0;
    /** ... by this many cycles. */
    Tick poison_offset = 10000;
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

    /** @name Fault activity counters (deterministic) */
    /// @{
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t delayed() const { return delayed_; }
    std::uint64_t poisoned() const { return poisoned_; }
    /// @}

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
};

} // namespace rasim

#endif // RASIM_TESTS_COSIM_FAULT_INJECTOR_HH
