/**
 * @file
 * The co-simulation health subsystem: machine-checked invariants
 * evaluated at every quantum boundary of QuantumBridge::advanceCoupled.
 *
 * Guards (each individually configurable through "health.*" keys):
 *
 *  - conservation: the backend must satisfy
 *        injected == delivered + in_flight
 *    (relative to the baseline at the last re-engagement) — a dropped
 *    or duplicated packet trips it;
 *  - progress watchdog: no delivery progress for a configurable
 *    number of cycles while packets are in flight means the detailed
 *    network dead- or livelocked;
 *  - divergence: the reciprocal latency table left its trusted bounds
 *    (tuned estimate >> zero-load seed) or the per-quantum mean
 *    |estimate error| blew up — poisoned feedback;
 *  - timeout: the backend burnt more wall-clock on one quantum than
 *    the configured budget (the overlapped worker is additionally
 *    preempted via NetworkModel::requestAbort()).
 *
 * A tripped guard quarantines the detailed backend: the bridge falls
 * back to tuned-abstract estimates from the last-good checkpoint of
 * the LatencyTable and optionally re-engages the backend after a
 * cooldown (probation with exponential backoff). All events are
 * exported as statistics under the bridge's "health" group.
 */

#ifndef RASIM_COSIM_HEALTH_MONITOR_HH
#define RASIM_COSIM_HEALTH_MONITOR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "noc/network_model.hh"
#include "sim/serialize.hh"
#include "sim/sim_error.hh"
#include "sim/sim_object.hh"
#include "stats/stat.hh"

namespace rasim
{

class Config;

namespace cosim
{

/** Guard thresholds and degradation policy ("health.*" keys). */
struct HealthOptions
{
    /** Master switch: construct the monitor at all. */
    bool enabled = true;
    /** Packet-conservation check at boundaries. */
    bool conservation = true;
    /** Cycles without delivery progress (while packets are in flight)
     *  before the watchdog declares deadlock/livelock (0 = off). */
    Tick watchdog_cycles = 100000;
    /** Largest tolerated tuned-estimate / zero-load-seed ratio
     *  (0 = off). */
    double divergence_factor = 64.0;
    /** Largest tolerated per-quantum mean |estimate error| in cycles
     *  (0 = off; reciprocal coupling only). */
    double divergence_error = 0.0;
    /** Wall-clock budget per backend quantum in milliseconds
     *  (0 = off). */
    double worker_timeout_ms = 0.0;
    /**
     * Multiplier applied to worker_timeout_ms wherever it is enforced
     * (the bridge's preemption budget and the boundary timeout guard).
     * Lets slow hosts — sanitizer builds, loaded CI runners, remote
     * backends over congested links — loosen the wall-clock watchdog
     * without retuning every config. The default 1.0 changes nothing,
     * so runs stay bit-identical unless explicitly scaled.
     */
    double timeout_scale = 1.0;
    /** Checkpoint the latency table every N healthy boundaries. */
    std::uint64_t checkpoint_quanta = 8;
    /** Quanta to stay quarantined before re-engaging the backend
     *  (0 = never re-engage once degraded). */
    std::uint64_t recovery_quanta = 64;
    /** Clean quanta on probation before declaring recovery. */
    std::uint64_t probation_quanta = 8;
    /** Cap on the exponential cooldown backoff multiplier. */
    std::uint64_t max_backoff = 64;
    /** false: a tripped guard raises SimError instead of degrading. */
    bool degrade = true;

    /** Read the "health.*" keys. */
    static HealthOptions fromConfig(const Config &cfg);
};

/**
 * Evaluates the guard set against per-boundary snapshots and owns the
 * health statistics. The degradation/recovery state machine itself
 * lives in QuantumBridge; the bridge reports its transitions here so
 * every event lands in the stats dump.
 */
class HealthMonitor : public SimObject
{
  public:
    /** Everything a boundary check needs, gathered by the bridge. */
    struct Snapshot
    {
        /** Backend packet accounting (nullopt: unauditable model). */
        std::optional<noc::NetworkModel::Accounting> acc;
        /** Cycles this boundary advanced the coupled pair. */
        Tick quantum_cycles = 0;
        /** Sum of |estimate error| samples since the last boundary. */
        double err_abs_sum = 0.0;
        /** Number of those samples. */
        std::uint64_t err_samples = 0;
        /** LatencyTable::maxSeedRatio() of the live table. */
        double table_seed_ratio = 1.0;
        /** Wall-clock the backend burnt on this quantum (ms). */
        double worker_ms = 0.0;
    };

    /** A tripped guard: what and why, ready to raise or log. */
    struct Trip
    {
        ErrorKind kind;
        std::string detail;
    };

    HealthMonitor(Simulation &sim, const std::string &name,
                  HealthOptions options, SimObject *parent);

    const HealthOptions &options() const { return options_; }

    /**
     * Evaluate every enabled guard against @p s. Returns the first
     * trip (conservation, deadlock, divergence, timeout — in that
     * order) or nullopt when healthy. Not idempotent: feeds the
     * watchdog's progress tracking.
     */
    std::optional<Trip> checkBoundary(const Snapshot &s);

    /**
     * Re-baseline the guards after the backend is re-engaged: packets
     * lost before the quarantine stay forgiven and the watchdog
     * restarts, so a recovered run is not re-tripped by old damage.
     */
    void rebase(const std::optional<noc::NetworkModel::Accounting> &acc);

    /** Count a trip detected outside checkBoundary (backend threw).
     *  @p detail distinguishes sub-causes: a Transport trip whose
     *  message carries the server's "backpressure:" marker (a frame
     *  quota refused the batch) also counts as a backpressure trip. */
    void noteTrip(ErrorKind kind,
                  const std::string &detail = std::string());

    /** Checkpoint watchdog/conservation tracking (stats are archived
     *  with the global stats tree). */
    void save(ArchiveWriter &aw) const;
    void restore(ArchiveReader &ar);

    /** @name State-machine transitions, reported by the bridge */
    /// @{
    void noteDegraded();
    void noteProbation();
    void noteRecovered();
    void noteRecoveryFailure();
    void noteCheckpoint();
    void noteDegradedQuantum() { ++degradedQuanta; }
    void noteSynthesized(std::uint64_t n);
    /// @}

    /** @name Health statistics (exported under <bridge>.health) */
    /// @{
    stats::Scalar conservationTrips;
    stats::Scalar deadlockTrips;
    stats::Scalar divergenceTrips;
    stats::Scalar timeoutTrips;
    stats::Scalar transportTrips;
    stats::Scalar backpressureTrips;
    stats::Scalar internalTrips;
    stats::Scalar degradations;
    stats::Scalar recoveries;
    stats::Scalar recoveryFailures;
    stats::Scalar checkpoints;
    stats::Scalar degradedQuanta;
    stats::Scalar syntheticDeliveries;
    stats::Value stateValue;
    /// @}

  private:
    HealthOptions options_;

    /** Watchdog progress tracking. */
    std::uint64_t last_delivered_ = 0;
    bool have_last_delivered_ = false;
    Tick stalled_cycles_ = 0;

    /** Conservation baseline: packets lost before the last rebase
     *  stay forgiven (signed: negative means duplication). */
    std::int64_t lost_baseline_ = 0;

    /** 0 healthy, 1 degraded, 2 probation (mirrors the bridge). */
    int state_ = 0;
};

} // namespace cosim
} // namespace rasim

#endif // RASIM_COSIM_HEALTH_MONITOR_HH
