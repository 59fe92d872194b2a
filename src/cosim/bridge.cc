#include "cosim/bridge.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include <sched.h>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace cosim
{

namespace
{

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Host ticks between two watermark publications of a pipelined
 *  quantum. */
constexpr Tick host_chunk = 4;

/**
 * How long a hand-off wait spins before it blocks. Waking a blocked
 * thread costs tens of microseconds on a VM, about what a short
 * quantum's whole network step costs, so both sides keep spinning
 * across the typical gap (see DESIGN.md §7.3 for the sweep).
 */
constexpr std::chrono::microseconds spin_budget{200};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

/** Wait until @p a no longer holds @p old and return the new value;
 *  acquire pairs with the writer's release. Spins with pauses, then
 *  yields between rounds until spin_budget is over (so a waiter that
 *  shares a CPU with its peer does not hold the peer off), then
 *  blocks. */
template <typename T>
T
awaitChange(const std::atomic<T> &a, T old)
{
    Clock::time_point deadline{};
    for (;;) {
        for (int i = 0; i < 64; ++i) {
            T v = a.load(std::memory_order_acquire);
            if (v != old)
                return v;
            cpuRelax();
        }
        Clock::time_point now = Clock::now();
        if (deadline == Clock::time_point{})
            deadline = now + spin_budget;
        else if (now >= deadline)
            break;
        else
            std::this_thread::yield();
    }
    a.wait(old, std::memory_order_acquire);
    return a.load(std::memory_order_acquire);
}

} // namespace

/**
 * The persistent backend thread. It runs one job per quantum and is
 * parked in between: follow the host's watermark to the quantum's
 * end. A pipelined quantum raises the watermark chunk by chunk; an
 * overlapped one publishes the quantum's end at once.
 *
 * Hand-offs: post() writes the job and bumps job_seq_ (release); the
 * thread bumps done_seq_ (release) when the job is over, and join()
 * acquires it, so the job's fields and everything the thread did to
 * the backend are ordered before the boundary work that follows.
 * publish() moves the packets handed over since the last publication
 * into inbox_ and then raises the watermark (release). Having seen a
 * watermark w (acquire), the thread therefore holds every packet
 * injected at or before w; it injects them and simulates the cycles
 * up to w, which need nothing later. Every wait spins before it
 * blocks.
 */
class QuantumBridge::BackendThread
{
  public:
    explicit BackendThread(noc::NetworkModel &backend)
        : backend_(backend), thread_([this] { loop(); })
    {
    }

    ~BackendThread()
    {
        // Only ever called with the thread parked between jobs.
        stop_ = true;
        job_seq_.fetch_add(1, std::memory_order_release);
        job_seq_.notify_one();
        thread_.join();
    }

    BackendThread(const BackendThread &) = delete;
    BackendThread &operator=(const BackendThread &) = delete;

    /** Start advancing the backend to @p q_end, as far as the
     *  published watermark allows. */
    void
    post(Tick q_end)
    {
        q_end_ = q_end;
        error_ = nullptr;
        busy_ns_ = 0.0;
        running_ = true;
        watermark_.store(0, std::memory_order_relaxed);
        job_seq_.fetch_add(1, std::memory_order_release);
        job_seq_.notify_one();
    }

    /** Host side: a job is posted and not yet joined. */
    bool running() const { return running_; }

    /** Host side: queue @p pkt for the backend's inject(). */
    void hand(const noc::PacketPtr &pkt) { staged_.push_back(pkt); }

    /** Host side: every event at or before @p t has run. */
    void
    publish(Tick t)
    {
        if (!staged_.empty()) {
            std::lock_guard<std::mutex> lock(inbox_mutex_);
            inbox_.insert(inbox_.end(), staged_.begin(), staged_.end());
            staged_.clear();
        }
        watermark_.store(t, std::memory_order_release);
        watermark_.notify_one();
    }

    /** Host side: the host failed mid-quantum; stop following it. A
     *  job whose end is already published runs to its end. */
    void
    abort()
    {
        if (watermark_.load(std::memory_order_relaxed) < q_end_)
            publish(aborted);
    }

    /** Wait for the job to end; returns the ns it kept the thread
     *  busy. Its failure, if any, is in error(). */
    double
    join()
    {
        std::uint64_t job = job_seq_.load(std::memory_order_relaxed);
        std::uint64_t done = done_seq_.load(std::memory_order_acquire);
        while (done != job)
            done = awaitChange(done_seq_, done);
        running_ = false;
        return busy_ns_;
    }

    std::exception_ptr error() const { return error_; }
    /** The CPU the thread ended its last job on (-1: unknown). */
    int cpu() const { return cpu_; }

  private:
    static constexpr Tick aborted = max_tick;

    void
    loop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            seen = awaitChange(job_seq_, seen);
            if (stop_)
                return;
            run();
            cpu_ = sched_getcpu();
            done_seq_.store(seen, std::memory_order_release);
            done_seq_.notify_one();
        }
    }

    void
    run()
    {
        // Backend panic()/fatal() become catchable SimError, as in a
        // sequential quantum on the calling thread.
        logging::ThrowOnError guard;
        Tick seen = 0;
        try {
            for (;;) {
                seen = awaitChange(watermark_, seen);
                if (seen == aborted) {
                    timed([this] { drain(); });
                    return;
                }
                // The final piece is an advanceTo(), so per-advance
                // work happens once per quantum, as without the thread.
                timed([this, seen] {
                    drain();
                    if (seen >= q_end_)
                        backend_.advanceTo(q_end_);
                    else
                        backend_.stepTo(seen + 1);
                });
                if (seen >= q_end_)
                    return;
            }
        } catch (...) {
            error_ = std::current_exception();
        }
        // The backend failed mid-quantum. The host-then-network order
        // would still have handed it the rest of the host's packets,
        // so keep injecting them until the host is done.
        try {
            while (seen < q_end_) {
                seen = awaitChange(watermark_, seen);
                drain();
            }
        } catch (...) {
            // The first failure is the one reported.
        }
    }

    /** Run @p work, adding its time to busy_ns_ (also if it throws). */
    template <typename F>
    void
    timed(F &&work)
    {
        struct Tally
        {
            double &ns;
            Clock::time_point t0;
            ~Tally() { ns += elapsedNs(t0); }
        } tally{busy_ns_, Clock::now()};
        work();
    }

    /** Inject what the host published, in its injection order. */
    void
    drain()
    {
        {
            std::lock_guard<std::mutex> lock(inbox_mutex_);
            drained_.swap(inbox_);
        }
        for (const noc::PacketPtr &pkt : drained_)
            backend_.inject(pkt);
        drained_.clear();
    }

    noc::NetworkModel &backend_;

    /** @name The job, written by post() before job_seq_ is bumped */
    /// @{
    Tick q_end_ = 0;
    bool stop_ = false;
    /// @}
    /** @name Results, read by the host after join() */
    /// @{
    std::exception_ptr error_;
    double busy_ns_ = 0.0;
    int cpu_ = -1;
    /// @}
    /** Host-only: between post() and join(). */
    bool running_ = false;

    std::atomic<std::uint64_t> job_seq_{0};
    std::atomic<std::uint64_t> done_seq_{0};
    std::atomic<Tick> watermark_{0};

    /** Host-only: packets handed over since the last publish(). */
    std::vector<noc::PacketPtr> staged_;
    std::mutex inbox_mutex_;
    /** Published packets not yet injected. */
    std::vector<noc::PacketPtr> inbox_;
    /** Thread-only: the batch being injected. */
    std::vector<noc::PacketPtr> drained_;

    std::thread thread_;
};

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
      checkpoint_(table_),
      health_(sim, "health", options_.health, state_, this)
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
    // Runs on the thread advancing the backend; everything that
    // touches shared state waits for the boundary.
    backend_.setDeliveryHandler([this](const noc::PacketPtr &pkt) {
        pending_deliveries_.push_back(pkt);
    });
}

QuantumBridge::~QuantumBridge()
{
    // Join the backend thread before anything it uses goes away.
    thread_.reset();
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
        Tick est_ticks = stampEstimate(*pkt);
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
        forward(clone);
        return;
    }
    if (state_ == HealthState::Degraded) {
        // Conservative fallback: the detailed network is quarantined,
        // so the delivery is synthesised from the tuned estimate.
        scheduleSynthetic(pkt, 0);
        return;
    }
    outstanding_.emplace(pkt->id, pkt);
    forward(pkt);
}

void
QuantumBridge::forward(const noc::PacketPtr &pkt)
{
    bool threaded = options_.overlap || (thread_ && thread_->running());
    if (!threaded) {
        backend_.inject(pkt);
        return;
    }
    // The backend thread injects the packet (overlap mode: in the
    // next quantum). The backend's own range check would fire there;
    // keep the check on the host's thread, at the injecting event.
    auto nodes = static_cast<std::size_t>(topo_->numNodes());
    if (pkt->src >= nodes || pkt->dst >= nodes)
        fatal("packet ", pkt->toString(), " references nodes outside a ",
              topo_->name(), " network");
    if (options_.overlap)
        pending_injections_.push_back(pkt);
    else
        thread_->hand(pkt);
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
QuantumBridge::applyDeliveries(Tick boundary)
{
    bool reciprocal = options_.coupling == Coupling::Reciprocal;
    for (const noc::PacketPtr &pkt : pending_deliveries_) {
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
            deliverUp(pkt, boundary, false);
            continue;
        }
        // A quarantine may already have served this packet from the
        // estimate; the late real delivery still calibrates the table
        // (above) but must not reach the system twice.
        deliverUp(pkt, boundary, outstanding_.erase(pkt->id) != 0);
    }
    pending_deliveries_.clear();
}

void
QuantumBridge::deliverUp(const noc::PacketPtr &pkt, Tick boundary,
                         bool to_system)
{
    if (pkt->deliver_tick > boundary) {
        // A NetworkModel delivers nothing dated after its advance
        // horizon; the slack below would wrap.
        const auto *model = dynamic_cast<const SimObject *>(&backend_);
        panic("network model '", model ? model->name() : "?",
              "' delivered ", pkt->toString(), " at tick ",
              pkt->deliver_tick, ", after the quantum boundary ",
              boundary);
    }
    ++packetsDelivered;
    deliverySlack.sample(static_cast<double>(boundary - pkt->deliver_tick));
    if (to_system && system_handler_)
        system_handler_(pkt);
}

double
QuantumBridge::runHost(Tick q_end)
{
    auto t0 = Clock::now();
    sim().run(q_end);
    return elapsedNs(t0);
}

void
QuantumBridge::account(double host_ns, double net_ns, double busy_ns)
{
    host_ns_ += host_ns;
    net_ns_ += net_ns;
    host_busy_ns_ += busy_ns;
}

QuantumBridge::Plan
QuantumBridge::plan(Tick q_start, Tick q_end) const
{
    if (state_ == HealthState::Degraded)
        return Plan::Tuned;
    if (options_.overlap)
        return Plan::Overlapped;
    // Conservative coupling stays sequential: its cores wait for
    // deliveries that apply at the boundary, so the host's work sits
    // at the quantum's first tick, where the backend waits for it
    // anyway, and the hand-offs cost more than the little left to
    // hide (DESIGN.md §7.3).
    if (options_.coupling == Coupling::Reciprocal &&
        backend_.pipelinable() && q_end - q_start >= min_pipelined_quantum)
        return Plan::Pipelined;
    return Plan::Sequential;
}

void
QuantumBridge::runQuantum(Plan how, Tick q_start, Tick q_end)
{
    if (how == Plan::Tuned) {
        double ns = runHost(q_end);
        account(ns, 0.0, ns);
        ++health_.degradedQuanta;
        drainDegraded(q_end);
        if (cooldown_ > 0 && --cooldown_ == 0)
            beginProbation();
        return;
    }

    std::optional<HealthMonitor::Trip> trip;
    try {
        if (how == Plan::Sequential) {
            double ns = runHost(q_end);
            // Backend panic()/fatal() become catchable SimError so a
            // misbehaving model degrades instead of killing the run.
            logging::ThrowOnError guard;
            auto t1 = Clock::now();
            backend_.advanceTo(q_end);
            account(ns, elapsedNs(t1), ns);
        } else {
            // Started by the first threaded quantum.
            if (!thread_)
                thread_ = std::make_unique<BackendThread>(backend_);
            BackendThread &worker = *thread_;
            if (how == Plan::Overlapped) {
                // Release the injections gathered during the previous
                // host quantum. Clones exist only to calibrate the
                // table; shift them to the boundary so the one-quantum
                // hand-off slack is not mistaken for genuine source
                // queueing.
                Tick boundary = backend_.curTime();
                for (const noc::PacketPtr &pkt : pending_injections_) {
                    if (options_.coupling == Coupling::Reciprocal)
                        pkt->inject_tick =
                            std::max(pkt->inject_tick, boundary);
                    worker.hand(pkt);
                }
                pending_injections_.clear();
            }
            auto t0 = Clock::now();
            worker.post(q_end);
            double busy_ns = 0.0;
            try {
                if (how == Plan::Overlapped) {
                    // The backend runs the whole quantum on those
                    // packets while the host simulates this one.
                    worker.publish(q_end);
                    busy_ns = runHost(q_end);
                } else {
                    // The host runs the quantum in chunks and
                    // publishes each chunk's end; the backend thread
                    // simulates every cycle the host has passed. Both
                    // sides touch only their own state until the
                    // join, so the boundary sees what the sequential
                    // order leaves.
                    for (Tick c = q_start; c < q_end;) {
                        c = std::min(q_end, c + host_chunk);
                        busy_ns += runHost(c);
                        worker.publish(c);
                    }
                }
            } catch (...) {
                // The thread is not left running: it injects what the
                // host handed it and stops (an overlapped quantum
                // runs to its end first). The host's failure is the
                // one that propagates; deliveries the thread made stay
                // queued for the next boundary.
                worker.abort();
                worker.join();
                throw;
            }
            double net_ns = worker.join();
            account(elapsedNs(t0) - net_ns, net_ns, busy_ns);
            int cpu = sched_getcpu();
            if (cpu >= 0 && cpu == worker.cpu())
                ++shared_cpu_quanta_;
            if (std::exception_ptr error = worker.error())
                std::rethrow_exception(error);
        }
        applyDeliveries(q_end);
    } catch (const SimError &e) {
        health_.noteTrip(e.kind());
        trip = HealthMonitor::Trip{e.kind(), e.what()};
    }
    if (!trip)
        trip = boundaryHealthCheck(q_end, q_end - q_start);
    if (trip)
        handleTrip(*trip, q_end);
}

std::optional<HealthMonitor::Trip>
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

    if (auto trip = health_.checkBoundary(s))
        return trip;

    // A clean boundary: advance probation and take the periodic
    // last-good checkpoint of the reciprocal table.
    if (state_ == HealthState::Probation && probation_left_ > 0 &&
        --probation_left_ == 0) {
        state_ = HealthState::Healthy;
        backoff_ = 1;
        ++health_.recoveries;
        inform("health: backend re-engaged and recovered at tick ",
               q_end);
    }
    if (++boundaries_since_checkpoint_ >=
        options_.health.checkpoint_quanta) {
        checkpoint_ = table_;
        boundaries_since_checkpoint_ = 0;
        ++health_.checkpoints;
    }
    return std::nullopt;
}

void
QuantumBridge::handleTrip(const HealthMonitor::Trip &trip, Tick q_end)
{
    warn("health: ", toString(trip.kind), " guard tripped at tick ",
         q_end, ": ", trip.detail);
    if (!options_.health.degrade)
        throw SimError(trip.kind, trip.detail);
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
        ++health_.recoveryFailures;
        backoff_ = std::min(backoff_ * 2, options_.health.max_backoff);
    }
    state_ = HealthState::Degraded;
    ++health_.degradations;
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
    // Forgive pre-quarantine damage: conservation losses are
    // re-baselined and the watchdog restarts from scratch.
    health_.rebase(backend_.accounting());
}

Tick
QuantumBridge::stampEstimate(noc::Packet &pkt) const
{
    int hops = topo_->minHops(pkt.src, pkt.dst);
    double est = table_.estimate(static_cast<int>(pkt.cls), hops,
                                 net_params_.flitsPerPacket(pkt.size_bytes),
                                 pkt.src, pkt.dst);
    auto est_ticks =
        std::max<Tick>(1, static_cast<Tick>(std::llround(est)));
    pkt.enter_tick = pkt.inject_tick;
    pkt.hops = static_cast<std::uint32_t>(hops);
    pkt.deliver_tick = pkt.inject_tick + est_ticks;
    return est_ticks;
}

void
QuantumBridge::scheduleSynthetic(const noc::PacketPtr &pkt, Tick floor)
{
    stampEstimate(*pkt);
    pkt->deliver_tick = std::max(pkt->deliver_tick, floor);
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
    // No observer_ call: the observer contract is "deliveries the
    // detailed backend actually made".
    std::size_t n = 0;
    while (n < degraded_out_.size() &&
           degraded_out_[n]->deliver_tick <= boundary)
        deliverUp(degraded_out_[n++], boundary, true);
    if (n > 0) {
        health_.syntheticDeliveries += static_cast<double>(n);
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
    // (and its CRC) is reproducible. These are the backend's own
    // packets, whose enter/deliver ticks and hops it fills in en
    // route; a restored bridge holds copies the backend never
    // touches, so those fields are archived as injected (a quarantine
    // overwrites them anyway) and a resumed run writes the same bytes
    // as the uninterrupted one.
    aw.putU64(outstanding_.size());
    for (const auto &[id, pkt] : outstanding_) {
        noc::Packet as_injected = *pkt;
        as_injected.enter_tick = 0;
        as_injected.deliver_tick = 0;
        as_injected.hops = 0;
        noc::savePacket(aw, as_injected);
    }

    aw.putU64(degraded_out_.size());
    for (const noc::PacketPtr &pkt : degraded_out_)
        noc::savePacket(aw, *pkt);

    health_.save(aw);
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
    health_.restore(ar);
    ar.endSection();
}

void
QuantumBridge::advanceCoupled(Tick t)
{
    Tick cur = std::max(sim().curTick(), backend_.curTime());
    while (cur < t) {
        Tick q_end = std::min(cur + options_.quantum, t);
        runQuantum(plan(cur, q_end), cur, q_end);
        ++quanta_;
        cur = q_end;
    }
}

} // namespace cosim
} // namespace rasim
