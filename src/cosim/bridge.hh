/**
 * @file
 * The reciprocal-abstraction boundary: a quantum-synchronised bridge
 * coupling the coarse-grain full-system simulator with a network model
 * of arbitrary fidelity.
 *
 * Downward abstraction: the system's real protocol packets (with
 * injection times inside the quantum) are the only view the network
 * gets of the cores and caches.
 *
 * Upward abstraction: every detailed delivery re-tunes a per-(vnet,
 * distance) latency table the coarse side can consult — the reciprocal
 * feedback that keeps the abstract view calibrated by the detailed
 * component (and that E6 ablates).
 *
 * Synchronisation: in sync mode the system simulates quantum k, then
 * the network simulates quantum k and its deliveries apply at the
 * boundary (exact at quantum = 1 — the Monolithic reference). In
 * overlapped mode the network processes quantum k while the host
 * simulates k+1, adding one quantum of exchange slack in both
 * directions but allowing the coprocessor to run concurrently.
 */

#ifndef RASIM_COSIM_BRIDGE_HH
#define RASIM_COSIM_BRIDGE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abstractnet/latency_table.hh"
#include "sim/flat_map.hh"
#include "cosim/health_monitor.hh"
#include "noc/network_model.hh"
#include "noc/params.hh"
#include "noc/topology.hh"
#include "sim/parallel_engine.hh"
#include "sim/serialize.hh"
#include "sim/sim_error.hh"
#include "sim/sim_object.hh"
#include "stats/distribution.hh"
#include "stats/stat.hh"

namespace rasim
{
namespace cosim
{

class QuantumBridge : public SimObject,
                      public noc::NetworkModel,
                      public Serializable
{
  public:
    /**
     * How the two simulators exchange timing.
     *
     * Conservative: packets cross the boundary physically — the system
     * waits for the detailed network's deliveries, which apply at
     * quantum boundaries. Exact at quantum 1 (the Monolithic
     * reference), but rounds every message round-trip up to the
     * quantum, so error grows quickly with the quantum (E5 shows
     * this).
     *
     * Reciprocal: the system's view of every packet is the tuned
     * latency table — deliveries are scheduled event-exactly from the
     * estimate at injection time, so the coarse side never stalls on
     * the detailed side. The detailed network simulates the same
     * traffic stream (per quantum, optionally on the coprocessor,
     * optionally overlapped) and its true latencies continuously
     * re-tune the table. This is the paper's contribution.
     */
    enum class Coupling
    {
        Conservative,
        Reciprocal,
    };

    struct Options
    {
        /** Exchange period in cycles. */
        Tick quantum = 256;
        /** Network quantum k runs while the host runs k+1. */
        bool overlap = false;
        /** Feed detailed deliveries into the latency table. */
        bool feedback = true;
        Coupling coupling = Coupling::Conservative;
        /**
         * Worker threads of a ParallelEngine the bridge installs on
         * the backend, so advanceCoupled() runs the detailed model's
         * data-parallel phases on the pool (combine with overlap to
         * overlap the pooled network with the host's next quantum).
         * Zero leaves the backend on its serial engine. Results are
         * bit-identical either way — see the determinism contract in
         * sim/step_engine.hh.
         */
        int engine_workers = 0;
        /** Guard thresholds and degradation policy (see
         *  HealthOptions); health.enabled=false disables the monitor
         *  entirely. */
        HealthOptions health;
        /** EWMA weight and granularity of the latency table. */
        abstractnet::AbstractParams abstract;
    };

    /**
     * Degradation state machine, driven by the health monitor's guard
     * verdicts at quantum boundaries:
     *
     *   Healthy --trip--> Degraded --cooldown--> Probation
     *   Probation --clean quanta--> Healthy (backoff resets)
     *   Probation --trip--> Degraded (cooldown doubles, capped)
     *
     * Degraded quanta run without the detailed backend: the system is
     * served tuned-abstract estimates from the last-good checkpoint of
     * the latency table (Reciprocal), or synthesised estimate-based
     * deliveries (Conservative). With health.recovery_quanta = 0 a
     * degraded bridge never re-engages the backend.
     */
    enum class HealthState
    {
        Healthy,
        Degraded,
        Probation,
    };

    QuantumBridge(Simulation &sim, const std::string &name,
                  noc::NetworkModel &backend,
                  const noc::NocParams &net_params, Options options,
                  SimObject *parent = nullptr);
    ~QuantumBridge() override;

    /** @name NetworkModel facade seen by the full system */
    /// @{
    void inject(const noc::PacketPtr &pkt) override;
    void advanceTo(Tick t) override;
    void setDeliveryHandler(DeliveryHandler handler) override;
    Tick curTime() const override;
    bool idle() const override;
    std::size_t numNodes() const override;
    /// @}

    /**
     * Drive the coupled pair — event simulator and network — forward
     * to tick @p t in quantum steps. The only sanctioned way to
     * advance a co-simulation.
     */
    void advanceCoupled(Tick t);

    /**
     * Observer invoked (on the main thread, at boundaries) for every
     * packet the detailed backend delivered — tooling hook for trace
     * capture and error analysis; does not affect coupling.
     */
    void
    setDeliveryObserver(DeliveryHandler observer)
    {
        observer_ = std::move(observer);
    }

    /** The reciprocal feedback target. */
    abstractnet::LatencyTable &table() { return table_; }
    const abstractnet::LatencyTable &table() const { return table_; }

    const Options &options() const { return options_; }
    noc::NetworkModel &backend() { return backend_; }

    HealthState healthState() const { return state_; }
    /** Null when health.enabled is false. */
    HealthMonitor *health() { return health_.get(); }
    const HealthMonitor *health() const { return health_.get(); }

    /**
     * Checkpoint the coupling state. Only valid at a quantum boundary
     * (after advanceCoupled returned): pending_deliveries_ must be
     * empty, which the save asserts. Wall-clock accounting (hostNs,
     * netNs, the last worker budget sample) is intentionally excluded
     * from the bit-identical contract.
     */
    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    /** Host nanoseconds spent inside full-system event simulation. */
    double hostNs() const { return host_ns_; }
    /** Host nanoseconds spent advancing the network backend. */
    double netNs() const { return net_ns_; }
    /** Quanta executed by advanceCoupled(). */
    std::uint64_t quantaRun() const { return quanta_; }

    stats::Scalar packetsForwarded;
    stats::Scalar packetsDelivered;
    /** Conservative: cycles between true delivery and boundary
     *  application. Reciprocal: staleness of the feedback (cycles
     *  between detailed delivery and its table update). */
    stats::Distribution deliverySlack;
    /** Reciprocal coupling only: signed error of the estimate the
     *  system consumed versus the detailed network's true latency. */
    stats::Distribution estimateError;

  private:
    void runQuantumSync(Tick q_end);
    void runQuantumOverlapped(Tick q_end);
    void runQuantumDegraded(Tick q_end);
    void applyDeliveries(Tick boundary);
    void onBackendDelivery(const noc::PacketPtr &pkt);

    /**
     * Advance the backend to @p q_end under the health monitor: backend
     * panic()/fatal() surface as catchable SimError, and with a
     * configured wall-clock budget the advance runs on a joinable
     * worker that is cooperatively preempted (requestAbort) on
     * overrun. Records the elapsed wall-clock in last_worker_ms_.
     * @throws SimError on backend failure or budget overrun.
     */
    void advanceBackendChecked(Tick q_end);

    /** Evaluate the guard set at a boundary; returns the trip if any
     *  guard fired (already counted in the monitor's stats). */
    std::optional<std::pair<ErrorKind, std::string>>
    boundaryHealthCheck(Tick q_end, Tick quantum_cycles);

    /** React to a tripped guard: quarantine the backend, or rethrow
     *  when health.degrade is off. */
    void handleTrip(ErrorKind kind, const std::string &detail,
                    Tick q_end);
    void quarantine(Tick q_end);
    void beginProbation();

    /** Queue an estimate-based delivery for @p pkt (Conservative
     *  coupling while degraded); never delivered before @p floor. */
    void scheduleSynthetic(const noc::PacketPtr &pkt, Tick floor);
    /** Apply queued synthetic deliveries due by @p boundary. */
    void drainDegraded(Tick boundary);

    noc::NetworkModel &backend_;
    Options options_;
    noc::NocParams net_params_;
    /** Pool driving the backend's phases (engine_workers > 0). */
    std::unique_ptr<ParallelEngine> engine_;
    std::unique_ptr<noc::Topology> topo_;
    abstractnet::LatencyTable table_;
    /** Last-good copy of table_, restored on quarantine. */
    abstractnet::LatencyTable checkpoint_;
    std::unique_ptr<HealthMonitor> health_;
    DeliveryHandler system_handler_;
    DeliveryHandler observer_;

    /** Injections buffered during the current host quantum (overlap
     *  mode only). */
    std::vector<noc::PacketPtr> pending_injections_;
    /** Deliveries produced by the backend, applied at the boundary. */
    std::vector<noc::PacketPtr> pending_deliveries_;

    /** @name Degradation state (health monitoring only) */
    /// @{
    HealthState state_ = HealthState::Healthy;
    /** Degraded quanta left before probation (0 = no recovery due). */
    std::uint64_t cooldown_ = 0;
    /** Clean probation quanta left before declaring recovery. */
    std::uint64_t probation_left_ = 0;
    /** Cooldown multiplier; doubles on each failed recovery. */
    std::uint64_t backoff_ = 1;
    std::uint64_t boundaries_since_checkpoint_ = 0;
    /** |estimate error| accumulated since the last boundary. */
    double err_abs_window_ = 0.0;
    std::uint64_t err_samples_window_ = 0;
    /** Wall-clock the backend burnt on the last quantum (ms). */
    double last_worker_ms_ = 0.0;
    /** Conservative coupling: packets the backend owes the system,
     *  so a quarantine can serve them from estimates and late real
     *  deliveries after re-engagement are not applied twice. */
    FlatMap<PacketId, noc::PacketPtr> outstanding_;
    /** Synthetic deliveries waiting for their due boundary. */
    std::vector<noc::PacketPtr> degraded_out_;
    /// @}

    double host_ns_ = 0.0;
    double net_ns_ = 0.0;
    std::uint64_t quanta_ = 0;
};

} // namespace cosim
} // namespace rasim

#endif // RASIM_COSIM_BRIDGE_HH
