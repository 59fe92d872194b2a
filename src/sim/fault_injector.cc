#include "sim/fault_injector.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace rasim
{

void
FaultOptions::validate() const
{
    if (delay_every > 0 && delay_cycles == 0)
        fatal("fault.delay_cycles must be positive when delays are on");
    if (poison_every > 0 && poison_offset == 0)
        fatal("fault.poison_offset must be positive when poisoning");
}

void
TransportFaultOptions::validate() const
{
    for (double p :
         {torn_frame, short_read, corrupt, delay, stall, disconnect}) {
        if (p < 0.0 || p > 1.0)
            fatal("fault.transport.* probabilities must be in [0, 1]");
    }
    if (delay_ms < 0.0 || stall_ms < 0.0)
        fatal("fault.transport delay_ms/stall_ms must be non-negative");
}

const char *
toString(TransportFaultKind kind)
{
    switch (kind) {
      case TransportFaultKind::None:
        return "none";
      case TransportFaultKind::TornFrame:
        return "torn-frame";
      case TransportFaultKind::ShortRead:
        return "short-read";
      case TransportFaultKind::Corrupt:
        return "corrupt";
      case TransportFaultKind::Delay:
        return "delay";
      case TransportFaultKind::Stall:
        return "stall";
      case TransportFaultKind::Disconnect:
        return "disconnect";
      case TransportFaultKind::Oversize:
        return "oversize";
    }
    return "unknown";
}

TransportFaultSchedule::TransportFaultSchedule(
    const TransportFaultOptions &opts, std::uint64_t stream)
    : opts_(opts), rng_(opts.seed, stream)
{
}

TransportFaultKind
TransportFaultSchedule::draw(
    const std::pair<TransportFaultKind, double> *bands, std::size_t n)
{
    std::uint64_t op = ops_++;
    // Exactly one Rng draw per operation whatever happens below, so
    // the schedule's sequence is a pure function of the operation
    // ordinal — reconnects and retries cannot desynchronise it.
    double u = rng_.uniform();
    if (!opts_.enabled || op < opts_.start_op)
        return TransportFaultKind::None;
    if (opts_.max_faults > 0 && faults_ >= opts_.max_faults)
        return TransportFaultKind::None;
    if (since_fault_ < opts_.min_gap_ops) {
        ++since_fault_;
        return TransportFaultKind::None;
    }
    double edge = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        edge += bands[i].second;
        if (u < edge) {
            ++faults_;
            since_fault_ = 0;
            ++by_kind_[static_cast<std::size_t>(bands[i].first)];
            return bands[i].first;
        }
    }
    // No increment here: once out of the gap, since_fault_ only moves
    // again by a fault resetting it (and the pre-first-fault ~0
    // sentinel must not wrap around into a phantom gap).
    return TransportFaultKind::None;
}

TransportFaultKind
TransportFaultSchedule::nextSend()
{
    const std::pair<TransportFaultKind, double> bands[] = {
        {TransportFaultKind::TornFrame, opts_.torn_frame},
        {TransportFaultKind::ShortRead, opts_.short_read},
        {TransportFaultKind::Corrupt, opts_.corrupt},
        {TransportFaultKind::Delay, opts_.delay},
        {TransportFaultKind::Disconnect, opts_.disconnect},
    };
    return draw(bands, std::size(bands));
}

TransportFaultKind
TransportFaultSchedule::nextRecv(bool header)
{
    // A header read can only be cut short (ShortRead); payload reads
    // can be torn or corrupted. Stalls apply to either.
    const std::pair<TransportFaultKind, double> header_bands[] = {
        {TransportFaultKind::Stall, opts_.stall},
        {TransportFaultKind::ShortRead, opts_.short_read},
    };
    const std::pair<TransportFaultKind, double> payload_bands[] = {
        {TransportFaultKind::Stall, opts_.stall},
        {TransportFaultKind::TornFrame, opts_.torn_frame},
        {TransportFaultKind::Corrupt, opts_.corrupt},
    };
    if (header)
        return draw(header_bands, std::size(header_bands));
    return draw(payload_bands, std::size(payload_bands));
}

void
TransportFaultSchedule::noteForced(TransportFaultKind kind)
{
    // Counters only: a forced fault neither consumes a draw nor
    // resets the gap — the probabilistic schedule stays exactly where
    // it was.
    if (kind == TransportFaultKind::None)
        return;
    ++faults_;
    ++by_kind_[static_cast<std::size_t>(kind)];
}

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
    // Engage/release the router stall at boundary granularity.
    if (opts_.stall_node >= 0) {
        if (!stall_engaged_ && t >= opts_.stall_from) {
            inner_.setNodeStalled(
                static_cast<std::size_t>(opts_.stall_node), true);
            stall_engaged_ = true;
        }
        if (stall_engaged_ && opts_.stall_until > 0 &&
            t >= opts_.stall_until) {
            inner_.setNodeStalled(
                static_cast<std::size_t>(opts_.stall_node), false);
            stall_engaged_ = false;
        }
    }

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
        pkt->deliver_tick += opts_.poison_offset;
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

bool
FaultInjector::setNodeStalled(std::size_t node, bool stalled)
{
    return inner_.setNodeStalled(node, stalled);
}

void
FaultInjector::save(ArchiveWriter &aw) const
{
    aw.beginSection("fault");
    aw.putU64(received_);
    aw.putU64(forwarded_up_);
    aw.putU64(deliveries_seen_);
    aw.putU64(dropped_);
    aw.putU64(delayed_);
    aw.putU64(poisoned_);
    aw.putBool(stall_engaged_);
    aw.putU64(held_.size());
    for (const auto &[tick, pkt] : held_) {
        aw.putU64(tick);
        noc::savePacket(aw, *pkt);
    }
    aw.endSection();
}

void
FaultInjector::restore(ArchiveReader &ar)
{
    ar.expectSection("fault");
    received_ = ar.getU64();
    forwarded_up_ = ar.getU64();
    deliveries_seen_ = ar.getU64();
    dropped_ = ar.getU64();
    delayed_ = ar.getU64();
    poisoned_ = ar.getU64();
    stall_engaged_ = ar.getBool();
    held_.clear();
    std::uint64_t n = ar.getU64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Tick tick = ar.getU64();
        held_.emplace_back(tick, noc::restorePacket(ar));
    }
    ar.endSection();
}

} // namespace rasim
