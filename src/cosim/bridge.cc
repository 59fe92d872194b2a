#include "cosim/bridge.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace cosim
{

namespace
{

double
elapsedNs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

QuantumBridge::QuantumBridge(Simulation &sim, const std::string &name,
                             noc::NetworkModel &backend,
                             const noc::NocParams &net_params,
                             Options options, SimObject *parent)
    : SimObject(sim, name, parent),
      packetsForwarded(this, "packets_forwarded",
                       "packets crossing the boundary downwards"),
      packetsDelivered(this, "packets_delivered",
                       "packets crossing the boundary upwards"),
      deliverySlack(this, "delivery_slack",
                    "boundary application delay (cycles)"),
      estimateError(this, "estimate_error",
                    "consumed estimate minus true latency (cycles)"),
      backend_(backend), options_(options), net_params_(net_params),
      topo_(noc::makeTopology(net_params.topology, net_params.columns,
                              net_params.rows)),
      table_(net_params, net_params.columns + net_params.rows + 2,
             options_.abstract.ewma_alpha, options_.abstract.granularity,
             net_params.numNodes()),
      checkpoint_(table_)
{
    if (options_.quantum == 0)
        fatal("co-simulation quantum must be positive");
    if (options_.engine_workers < 0)
        fatal("co-simulation engine worker count must be non-negative");
    if (options_.engine_workers > 0) {
        engine_ =
            std::make_unique<ParallelEngine>(options_.engine_workers);
        backend_.setEngine(engine_.get());
    }
    if (options_.health.enabled) {
        health_ = std::make_unique<HealthMonitor>(
            sim, "health", options_.health, this);
    }
    backend_.setDeliveryHandler(
        [this](const noc::PacketPtr &pkt) { onBackendDelivery(pkt); });
}

QuantumBridge::~QuantumBridge()
{
    // The backend usually outlives the bridge; detach the pool before
    // it is destroyed so the backend falls back to serial execution.
    if (engine_)
        backend_.setEngine(nullptr);
}

void
QuantumBridge::inject(const noc::PacketPtr &pkt)
{
    ++packetsForwarded;
    if (options_.coupling == Coupling::Reciprocal) {
        // Upward abstraction: the system consumes the table estimate
        // immediately, event-exactly, and never waits on the detailed
        // model.
        int hops = topo_->minHops(pkt->src, pkt->dst);
        std::uint32_t flits =
            net_params_.flitsPerPacket(pkt->size_bytes);
        double est = table_.estimate(static_cast<int>(pkt->cls), hops,
                                     flits, pkt->src, pkt->dst);
        auto est_ticks =
            std::max<Tick>(1, static_cast<Tick>(std::llround(est)));
        pkt->enter_tick = pkt->inject_tick;
        pkt->hops = static_cast<std::uint32_t>(hops);
        pkt->deliver_tick = pkt->inject_tick + est_ticks;
        if (system_handler_)
            system_handler_(pkt);

        // Quarantined: the system keeps running on the checkpointed
        // table (the Tuned-abstract fallback); no clone reaches the
        // detailed backend until it is re-engaged.
        if (state_ == HealthState::Degraded)
            return;

        // Downward abstraction: the detailed network sees the same
        // contextual traffic stream through a clone whose true
        // latency will re-tune the table.
        noc::PacketPtr clone = noc::clonePacket(*pkt);
        clone->enter_tick = 0;
        clone->deliver_tick = 0;
        clone->hops = 0;
        clone->context = est_ticks; // remember the consumed estimate
        if (options_.overlap)
            pending_injections_.push_back(clone);
        else
            backend_.inject(clone);
        return;
    }
    if (state_ == HealthState::Degraded) {
        // Conservative fallback: the detailed network is quarantined,
        // so the delivery is synthesised from the tuned estimate.
        scheduleSynthetic(pkt, 0);
        return;
    }
    if (health_)
        outstanding_.emplace(pkt->id, pkt);
    if (options_.overlap) {
        // The backend may be advancing on the worker right now; hold
        // the packet until the boundary.
        pending_injections_.push_back(pkt);
        return;
    }
    backend_.inject(pkt);
}

void
QuantumBridge::advanceTo(Tick t)
{
    advanceCoupled(t);
}

void
QuantumBridge::setDeliveryHandler(DeliveryHandler handler)
{
    system_handler_ = std::move(handler);
}

Tick
QuantumBridge::curTime() const
{
    return backend_.curTime();
}

bool
QuantumBridge::idle() const
{
    // A quarantined backend owes the system nothing (its packets are
    // served from estimates) and is not advanced, so packets stuck in
    // it must not keep the run going until the tick limit.
    bool backend_idle =
        state_ == HealthState::Degraded || backend_.idle();
    return backend_idle && pending_injections_.empty() &&
           pending_deliveries_.empty() && degraded_out_.empty();
}

std::size_t
QuantumBridge::numNodes() const
{
    return backend_.numNodes();
}

void
QuantumBridge::onBackendDelivery(const noc::PacketPtr &pkt)
{
    // Runs on the thread advancing the backend (worker in overlapped
    // mode); defer everything that touches shared state to the
    // boundary.
    pending_deliveries_.push_back(pkt);
}

void
QuantumBridge::applyDeliveries(Tick boundary)
{
    bool reciprocal = options_.coupling == Coupling::Reciprocal;
    bool track = health_ && !reciprocal;
    for (const noc::PacketPtr &pkt : pending_deliveries_) {
        ++packetsDelivered;
        deliverySlack.sample(
            static_cast<double>(boundary - pkt->deliver_tick));
        if (observer_)
            observer_(pkt);
        if (options_.feedback) {
            table_.observe(static_cast<int>(pkt->cls),
                           static_cast<int>(pkt->hops),
                           net_params_.flitsPerPacket(pkt->size_bytes),
                           pkt->latency(), pkt->src, pkt->dst);
        }
        if (reciprocal) {
            // The system already received this packet from the
            // estimate; only the feedback matters here.
            double err = static_cast<double>(pkt->context) -
                         static_cast<double>(pkt->latency());
            estimateError.sample(err);
            err_abs_window_ += std::abs(err);
            ++err_samples_window_;
            continue;
        }
        if (track && outstanding_.erase(pkt->id) == 0) {
            // A quarantine already served this packet from the
            // estimate; the late real delivery still calibrates the
            // table (above) but must not reach the system twice.
            continue;
        }
        if (system_handler_)
            system_handler_(pkt);
    }
    pending_deliveries_.clear();
}

void
QuantumBridge::runHost(Tick q_end)
{
    auto t0 = std::chrono::steady_clock::now();
    sim().run(q_end);
    host_ns_ += elapsedNs(t0);
}

void
QuantumBridge::advanceBackend(Tick q_end)
{
    // Under the monitor, backend panic()/fatal() become catchable
    // SimError so a misbehaving model degrades instead of killing the
    // run.
    std::optional<logging::ThrowOnError> guard;
    if (health_)
        guard.emplace();
    auto t1 = std::chrono::steady_clock::now();
    backend_.advanceTo(q_end);
    net_ns_ += elapsedNs(t1);
}

void
QuantumBridge::runQuantumSync(Tick q_end)
{
    runHost(q_end);
    advanceBackend(q_end);
    applyDeliveries(q_end);
}

void
QuantumBridge::runQuantumOverlapped(Tick q_end)
{
    // Release the injections gathered during the previous host
    // quantum, then let the backend chew on them while the host
    // simulates this quantum.
    Tick boundary = backend_.curTime();
    for (const noc::PacketPtr &pkt : pending_injections_) {
        if (options_.coupling == Coupling::Reciprocal) {
            // Clones exist only to calibrate the table; shift them to
            // the boundary so the one-quantum hand-off slack is not
            // mistaken for genuine source queueing.
            pkt->inject_tick = std::max(pkt->inject_tick, boundary);
        }
        backend_.inject(pkt);
    }
    pending_injections_.clear();

    std::exception_ptr net_error;
    {
        // Joined on scope exit, also when the host side throws: the
        // worker is never leaked, and the deliveries it already made
        // stay queued in pending_deliveries_ for the next boundary.
        std::jthread net_worker([this, q_end, &net_error] {
            try {
                advanceBackend(q_end);
            } catch (...) {
                net_error = std::current_exception();
            }
        });
        runHost(q_end);
    }
    if (net_error)
        std::rethrow_exception(net_error);
    applyDeliveries(q_end);
}

void
QuantumBridge::runQuantumDegraded(Tick q_end)
{
    runHost(q_end);

    health_->noteDegradedQuantum();
    drainDegraded(q_end);

    if (cooldown_ > 0 && --cooldown_ == 0)
        beginProbation();
}

std::optional<std::pair<ErrorKind, std::string>>
QuantumBridge::boundaryHealthCheck(Tick q_end, Tick quantum_cycles)
{
    // Synthetic deliveries can outlive the degraded window; serve the
    // due ones even after the backend re-engaged.
    drainDegraded(q_end);

    HealthMonitor::Snapshot s;
    s.acc = backend_.accounting();
    s.quantum_cycles = quantum_cycles;
    s.err_abs_sum = err_abs_window_;
    s.err_samples = err_samples_window_;
    // The divergence guard protects the estimates the system consumes;
    // under Conservative coupling the system never consumes them, and
    // the table legitimately tracks boundary-rounded latencies far
    // above zero-load, so the probe only applies to Reciprocal runs.
    if (options_.coupling == Coupling::Reciprocal)
        s.table_seed_ratio = table_.maxSeedRatio();
    err_abs_window_ = 0.0;
    err_samples_window_ = 0;

    auto trip = health_->checkBoundary(s);
    if (trip)
        return std::make_pair(trip->kind, trip->detail);

    // A clean boundary: advance probation and take the periodic
    // last-good checkpoint of the reciprocal table.
    if (state_ == HealthState::Probation && probation_left_ > 0 &&
        --probation_left_ == 0) {
        state_ = HealthState::Healthy;
        backoff_ = 1;
        health_->noteRecovered();
        inform("health: backend re-engaged and recovered at tick ",
               q_end);
    }
    if (++boundaries_since_checkpoint_ >=
        options_.health.checkpoint_quanta) {
        checkpoint_ = table_;
        boundaries_since_checkpoint_ = 0;
        health_->noteCheckpoint();
    }
    return std::nullopt;
}

void
QuantumBridge::handleTrip(ErrorKind kind, const std::string &detail,
                          Tick q_end)
{
    warn("health: ", toString(kind), " guard tripped at tick ", q_end,
         ": ", detail);
    if (!options_.health.degrade)
        throw SimError(kind, detail);
    quarantine(q_end);
}

void
QuantumBridge::quarantine(Tick q_end)
{
    // Real deliveries collected this quantum still count — apply them
    // before the rollback (a poisoned sample folded into the table is
    // undone by the checkpoint restore below).
    applyDeliveries(q_end);

    if (state_ == HealthState::Probation) {
        health_->noteRecoveryFailure();
        backoff_ = std::min(backoff_ * 2, options_.health.max_backoff);
    }
    state_ = HealthState::Degraded;
    health_->noteDegraded();
    cooldown_ = options_.health.recovery_quanta * backoff_;

    // Tuned-abstract fallback: estimates come from the last-good
    // checkpoint from here on.
    table_ = checkpoint_;
    boundaries_since_checkpoint_ = 0;
    err_abs_window_ = 0.0;
    err_samples_window_ = 0;

    // Clones (Reciprocal) or packets (Conservative) buffered for a
    // backend that will not run; the conservative ones are served from
    // estimates below via outstanding_.
    pending_injections_.clear();

    if (options_.coupling == Coupling::Conservative) {
        // Everything the quarantined backend still owes the system is
        // synthesised from estimates, due no earlier than now (id
        // order — FlatMap iterates ascending).
        for (const auto &[id, pkt] : outstanding_)
            scheduleSynthetic(pkt, q_end);
        outstanding_.clear();
        drainDegraded(q_end);
    }

    if (cooldown_ > 0) {
        inform("health: detailed backend quarantined at tick ", q_end,
               "; retrying after ", cooldown_, " quanta");
    } else {
        inform("health: detailed backend quarantined at tick ", q_end,
               "; running tuned-abstract for the rest of the run");
    }
}

void
QuantumBridge::beginProbation()
{
    state_ = HealthState::Probation;
    probation_left_ = options_.health.probation_quanta;
    health_->noteProbation();
    // Forgive pre-quarantine damage: conservation losses are
    // re-baselined and the watchdog restarts from scratch.
    health_->rebase(backend_.accounting());
}

void
QuantumBridge::scheduleSynthetic(const noc::PacketPtr &pkt, Tick floor)
{
    int hops = topo_->minHops(pkt->src, pkt->dst);
    std::uint32_t flits = net_params_.flitsPerPacket(pkt->size_bytes);
    double est = table_.estimate(static_cast<int>(pkt->cls), hops,
                                 flits, pkt->src, pkt->dst);
    auto est_ticks =
        std::max<Tick>(1, static_cast<Tick>(std::llround(est)));
    pkt->enter_tick = pkt->inject_tick;
    pkt->hops = static_cast<std::uint32_t>(hops);
    pkt->deliver_tick = std::max(pkt->inject_tick + est_ticks, floor);
    degraded_out_.push_back(pkt);
}

void
QuantumBridge::drainDegraded(Tick boundary)
{
    if (degraded_out_.empty())
        return;
    // Stable order: (due tick, id) makes degraded runs reproducible.
    std::sort(degraded_out_.begin(), degraded_out_.end(),
              [](const noc::PacketPtr &a, const noc::PacketPtr &b) {
                  if (a->deliver_tick != b->deliver_tick)
                      return a->deliver_tick < b->deliver_tick;
                  return a->id < b->id;
              });
    std::size_t n = 0;
    while (n < degraded_out_.size() &&
           degraded_out_[n]->deliver_tick <= boundary) {
        const noc::PacketPtr &pkt = degraded_out_[n];
        ++packetsDelivered;
        deliverySlack.sample(
            static_cast<double>(boundary - pkt->deliver_tick));
        // No observer_ call: the observer contract is "deliveries the
        // detailed backend actually made".
        if (system_handler_)
            system_handler_(pkt);
        ++n;
    }
    if (n > 0) {
        health_->noteSynthesized(n);
        degraded_out_.erase(degraded_out_.begin(),
                            degraded_out_.begin() +
                                static_cast<std::ptrdiff_t>(n));
    }
}

void
QuantumBridge::save(ArchiveWriter &aw) const
{
    aw.beginSection("bridge");
    if (!pending_deliveries_.empty()) {
        panic("bridge checkpoint outside a quantum boundary (",
              pending_deliveries_.size(), " deliveries unapplied)");
    }
    table_.saveBinary(aw);
    checkpoint_.saveBinary(aw);
    aw.putU8(static_cast<std::uint8_t>(state_));
    aw.putU64(cooldown_);
    aw.putU64(probation_left_);
    aw.putU64(backoff_);
    aw.putU64(boundaries_since_checkpoint_);
    aw.putDouble(err_abs_window_);
    aw.putU64(err_samples_window_);
    aw.putU64(quanta_);

    // Overlap mode buffers the host quantum's injections until the
    // next boundary; they are part of the coupling state.
    aw.putU64(pending_injections_.size());
    for (const noc::PacketPtr &pkt : pending_injections_)
        noc::savePacket(aw, *pkt);

    // Conservative accounting of what the backend owes the system,
    // archived in id order (FlatMap iterates ascending) so the image
    // (and its CRC) is reproducible.
    aw.putU64(outstanding_.size());
    for (const auto &[id, pkt] : outstanding_)
        noc::savePacket(aw, *pkt);

    aw.putU64(degraded_out_.size());
    for (const noc::PacketPtr &pkt : degraded_out_)
        noc::savePacket(aw, *pkt);

    aw.putBool(static_cast<bool>(health_));
    if (health_)
        health_->save(aw);
    aw.endSection();
}

void
QuantumBridge::restore(ArchiveReader &ar)
{
    ar.expectSection("bridge");
    table_.restoreBinary(ar);
    checkpoint_.restoreBinary(ar);
    state_ = static_cast<HealthState>(ar.getU8());
    cooldown_ = ar.getU64();
    probation_left_ = ar.getU64();
    backoff_ = ar.getU64();
    boundaries_since_checkpoint_ = ar.getU64();
    err_abs_window_ = ar.getDouble();
    err_samples_window_ = ar.getU64();
    quanta_ = ar.getU64();

    pending_injections_.clear();
    std::uint64_t n_inj = ar.getU64();
    for (std::uint64_t i = 0; i < n_inj; ++i)
        pending_injections_.push_back(noc::restorePacket(ar));

    outstanding_.clear();
    std::uint64_t n_out = ar.getU64();
    for (std::uint64_t i = 0; i < n_out; ++i) {
        noc::PacketPtr pkt = noc::restorePacket(ar);
        outstanding_.emplace(pkt->id, pkt);
    }

    degraded_out_.clear();
    std::uint64_t n_deg = ar.getU64();
    for (std::uint64_t i = 0; i < n_deg; ++i)
        degraded_out_.push_back(noc::restorePacket(ar));

    pending_deliveries_.clear();
    bool had_health = ar.getBool();
    if (had_health != static_cast<bool>(health_)) {
        panic("checkpoint ", had_health ? "has" : "lacks",
              " health-monitor state but the restored bridge ",
              health_ ? "has" : "lacks", " a monitor");
    }
    if (health_)
        health_->restore(ar);
    ar.endSection();
}

void
QuantumBridge::advanceCoupled(Tick t)
{
    void (QuantumBridge::*run_quantum)(Tick) =
        options_.overlap ? &QuantumBridge::runQuantumOverlapped
                         : &QuantumBridge::runQuantumSync;
    Tick cur = std::max(sim().curTick(), backend_.curTime());
    while (cur < t) {
        Tick q_end = std::min(cur + options_.quantum, t);
        if (state_ == HealthState::Degraded) {
            runQuantumDegraded(q_end);
        } else if (health_) {
            std::optional<std::pair<ErrorKind, std::string>> trip;
            try {
                (this->*run_quantum)(q_end);
            } catch (const SimError &e) {
                health_->noteTrip(e.kind());
                trip = std::make_pair(e.kind(), std::string(e.what()));
            }
            if (!trip)
                trip = boundaryHealthCheck(q_end, q_end - cur);
            if (trip)
                handleTrip(trip->first, trip->second, q_end);
        } else {
            (this->*run_quantum)(q_end);
        }
        ++quanta_;
        cur = q_end;
    }
}

} // namespace cosim
} // namespace rasim
