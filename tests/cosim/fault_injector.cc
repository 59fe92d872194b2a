#include "cosim/fault_injector.hh"

#include <algorithm>

namespace rasim
{

FaultInjector::FaultInjector(noc::NetworkModel &inner, FaultOptions opts)
    : inner_(inner), opts_(opts)
{
    inner_.setDeliveryHandler(
        [this](const noc::PacketPtr &pkt) { onInnerDelivery(pkt); });
}

void
FaultInjector::inject(const noc::PacketPtr &pkt)
{
    ++received_;
    if (opts_.drop_every > 0 && received_ % opts_.drop_every == 0) {
        ++dropped_;
        return;
    }
    if (opts_.delay_every > 0 && received_ % opts_.delay_every == 0) {
        ++delayed_;
        held_.emplace_back(pkt->inject_tick + opts_.delay_cycles, pkt);
        return;
    }
    inner_.inject(pkt);
}

void
FaultInjector::releaseHeld(Tick t)
{
    // Stable order: release in (tick, id) order so a run is exactly
    // reproducible regardless of how many packets share a release tick.
    std::sort(held_.begin(), held_.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first < b.first;
                  return a.second->id < b.second->id;
              });
    // Advance the inner network up to each release point before
    // injecting: the inner model treats inject ticks in its past as
    // "now", so injecting without the advance would let a held packet
    // re-enter (and be delivered) before its delay expired.
    std::size_t n = 0;
    while (n < held_.size() && held_[n].first <= t) {
        Tick release = held_[n].first;
        if (release > inner_.curTime())
            inner_.advanceTo(release);
        while (n < held_.size() && held_[n].first == release)
            inner_.inject(held_[n++].second);
    }
    held_.erase(held_.begin(), held_.begin() + n);
}

void
FaultInjector::advanceTo(Tick t)
{
    // Frozen: the backend makes no progress inside the window (held
    // packets stay held — releasing them would advance the inner net).
    if (opts_.freeze_from > 0 && t >= opts_.freeze_from &&
        (opts_.freeze_until == 0 || t < opts_.freeze_until)) {
        return;
    }

    releaseHeld(t);
    inner_.advanceTo(t);
}

void
FaultInjector::onInnerDelivery(const noc::PacketPtr &pkt)
{
    ++deliveries_seen_;
    if (opts_.poison_every > 0 &&
        deliveries_seen_ % opts_.poison_every == 0) {
        // Move the injection back rather than the delivery forward:
        // a delivery dated past the advance horizon breaks the
        // NetworkModel contract (the bridge panics on one). Unsigned
        // ticks wrap, so latency() reads exactly poison_offset more
        // even for a packet injected before tick poison_offset.
        pkt->inject_tick -= opts_.poison_offset;
        ++poisoned_;
    }
    ++forwarded_up_;
    if (handler_)
        handler_(pkt);
}

void
FaultInjector::setDeliveryHandler(DeliveryHandler handler)
{
    handler_ = std::move(handler);
}

void
FaultInjector::setEngine(StepEngine *engine)
{
    inner_.setEngine(engine);
}

Tick
FaultInjector::curTime() const
{
    return inner_.curTime();
}

bool
FaultInjector::idle() const
{
    return held_.empty() && inner_.idle();
}

std::size_t
FaultInjector::numNodes() const
{
    return inner_.numNodes();
}

std::optional<noc::NetworkModel::Accounting>
FaultInjector::accounting() const
{
    auto inner_acc = inner_.accounting();
    if (!inner_acc)
        return std::nullopt;
    // Report what the bridge handed *us*: dropped packets are neither
    // delivered nor in flight, so they surface as a conservation
    // violation — by design.
    Accounting acc;
    acc.injected = received_;
    acc.delivered = forwarded_up_;
    acc.in_flight = inner_acc->in_flight + held_.size();
    return acc;
}

} // namespace rasim
