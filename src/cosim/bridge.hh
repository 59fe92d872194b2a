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
 * Synchronisation: in sync mode the system and the network both
 * simulate quantum k and the network's deliveries apply at the
 * boundary (exact at quantum = 1 — the Monolithic reference). In
 * overlapped mode the network processes quantum k while the host
 * simulates k+1, adding one quantum of exchange slack in both
 * directions but allowing the coprocessor to run concurrently.
 *
 * Threads: every quantum runs one plan, picked from simulated state
 * alone (DESIGN.md §7.3): tuned while the backend is quarantined,
 * overlapped in overlap mode, pipelined for a reciprocal quantum over
 * an in-process cycle-level backend (NetworkModel::pipelinable()) at
 * least min_pipelined_quantum long, sequential otherwise. A
 * pipelined quantum runs the host on the calling thread and the
 * backend on one persistent backend thread at the same time: the
 * host publishes a watermark every few ticks, and the backend
 * simulates no cycle the watermark has not passed, so it sees exactly
 * the packets the host-then-network order would have shown it and the
 * results are bit-identical. An overlapped quantum publishes its end
 * at once, with the previous quantum's injections. The thread starts
 * with the first quantum that needs it and is joined by the
 * destructor; boundary work always runs on the calling thread.
 */

#ifndef RASIM_COSIM_BRIDGE_HH
#define RASIM_COSIM_BRIDGE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
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
         * The pool's work rule runs phases with few active nodes
         * inline and starts its threads at the first phase it pools.
         * Zero leaves the backend on its serial engine. Results are
         * bit-identical either way — see the determinism contract in
         * sim/step_engine.hh.
         */
        int engine_workers = 0;
        /** Guard thresholds and degradation policy (see
         *  HealthOptions). */
        HealthOptions health;
        /** EWMA weight and granularity of the latency table. */
        abstractnet::AbstractParams abstract;
    };

    /** The degradation state (see HealthState); the bridge owns it. */
    using HealthState = cosim::HealthState;

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
    /** The boundary guards; never null. */
    HealthMonitor *health() { return &health_; }
    const HealthMonitor *health() const { return &health_; }

    /**
     * Checkpoint the coupling state. Only valid at a quantum boundary
     * (after advanceCoupled returned): pending_deliveries_ must be
     * empty, which the save asserts. Wall-clock accounting (hostNs,
     * netNs) is intentionally excluded from the bit-identical
     * contract.
     */
    void save(ArchiveWriter &aw) const override;
    void restore(ArchiveReader &ar) override;

    /**
     * The two layers of the quanta's wall clock: netNs() is the time
     * spent advancing the backend (on the backend thread, when the
     * backend runs there) and hostNs() the rest of each quantum, so
     * the two sum to the wall clock of the quanta. Without a backend
     * thread hostNs() is the event simulation's own time.
     */
    double hostNs() const { return host_ns_; }
    double netNs() const { return net_ns_; }
    /**
     * Nanoseconds the event simulation itself ran, also where it ran
     * beside the backend; hostBusyNs() - hostNs() is the host time
     * the backend thread hid.
     */
    double hostBusyNs() const { return host_busy_ns_; }
    /** Quanta executed by advanceCoupled(). */
    std::uint64_t quantaRun() const { return quanta_; }
    /**
     * Threaded quanta whose two sides ended on one CPU (sched_getcpu()
     * equal at the join): a quantum the scheduler most likely
     * serialised. Wall-clock placement, outside the stats tree and
     * the checkpoint, like hostNs().
     */
    std::uint64_t sharedCpuQuanta() const { return shared_cpu_quanta_; }
    /** The pool installed on the backend (null with no workers); its
     *  phase counters say how many phases it handed to its workers. */
    const ParallelEngine *engine() const { return engine_.get(); }

    stats::Scalar packetsForwarded;
    stats::Scalar packetsDelivered;
    /** Conservative: cycles between true delivery and boundary
     *  application. Reciprocal: staleness of the feedback (cycles
     *  between detailed delivery and its table update). */
    stats::Distribution deliverySlack;
    /** Reciprocal coupling only: signed error of the estimate the
     *  system consumed versus the detailed network's true latency. */
    stats::Distribution estimateError;

    /**
     * Reciprocal sync quanta shorter than this run host, then
     * network, on the calling thread: the hand-off to the backend
     * thread costs more than it hides. Chosen by a sweep over E5's
     * quanta (DESIGN.md §7.3).
     */
    static constexpr Tick min_pipelined_quantum = 16;

  private:
    class BackendThread;

    /** How one quantum runs. */
    enum class Plan
    {
        /** Quarantined: host only, on tuned estimates. */
        Tuned,
        /** Host, then backend, on the calling thread. */
        Sequential,
        /** Host and backend side by side, the backend following the
         *  host's watermark on the backend thread. */
        Pipelined,
        /** The backend runs the previous quantum's injections on the
         *  backend thread while the host runs this quantum. */
        Overlapped,
    };

    /** The plan for quantum [@p q_start, @p q_end); reads simulated
     *  state and options only. */
    Plan plan(Tick q_start, Tick q_end) const;
    /** Run quantum [@p q_start, @p q_end) to its boundary by @p how,
     *  then check and react to the guards. */
    void runQuantum(Plan how, Tick q_start, Tick q_end);

    void applyDeliveries(Tick boundary);
    /** Book @p pkt as crossing upwards at @p boundary and, when
     *  @p to_system, hand it to the system. */
    void deliverUp(const noc::PacketPtr &pkt, Tick boundary,
                   bool to_system);
    /** Hand @p pkt to the backend: directly, through the backend
     *  thread while it runs a quantum, or at the next boundary
     *  (overlap mode). */
    void forward(const noc::PacketPtr &pkt);
    /** Stamp @p pkt as the tuned table predicts it (entered at
     *  injection, minimal hops, delivered after the estimate); returns
     *  the estimate in ticks. */
    Tick stampEstimate(noc::Packet &pkt) const;

    /** Run the event simulation to @p q_end; returns its ns. */
    double runHost(Tick q_end);
    /** Book one quantum's wall clock: @p host_ns exposed host time,
     *  @p net_ns in the backend, @p busy_ns of host simulation. */
    void account(double host_ns, double net_ns, double busy_ns);

    /** Evaluate the guard set at a boundary; returns the trip if any
     *  guard fired (already counted in the monitor's stats). */
    std::optional<HealthMonitor::Trip>
    boundaryHealthCheck(Tick q_end, Tick quantum_cycles);

    /** React to a tripped guard: quarantine the backend, or rethrow
     *  when health.degrade is off. */
    void handleTrip(const HealthMonitor::Trip &trip, Tick q_end);
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
    HealthMonitor health_;
    DeliveryHandler system_handler_;
    DeliveryHandler observer_;

    /** Runs the backend beside the host (pipelined and overlapped
     *  quanta); null until the first such quantum. */
    std::unique_ptr<BackendThread> thread_;

    /** Injections buffered during the current host quantum (overlap
     *  mode only). */
    std::vector<noc::PacketPtr> pending_injections_;
    /** Deliveries produced by the backend, applied at the boundary. */
    std::vector<noc::PacketPtr> pending_deliveries_;

    /** @name Degradation state */
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
    /** Conservative coupling: packets the backend owes the system,
     *  so a quarantine can serve them from estimates and late real
     *  deliveries after re-engagement are not applied twice. */
    FlatMap<PacketId, noc::PacketPtr> outstanding_;
    /** Synthetic deliveries waiting for their due boundary. */
    std::vector<noc::PacketPtr> degraded_out_;
    /// @}

    double host_ns_ = 0.0;
    double net_ns_ = 0.0;
    double host_busy_ns_ = 0.0;
    std::uint64_t quanta_ = 0;
    std::uint64_t shared_cpu_quanta_ = 0;
};

} // namespace cosim
} // namespace rasim

#endif // RASIM_COSIM_BRIDGE_HH
