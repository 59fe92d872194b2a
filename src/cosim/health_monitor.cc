#include "cosim/health_monitor.hh"

#include <sstream>

#include "sim/logging.hh"

namespace rasim
{
namespace cosim
{

void
HealthOptions::validate() const
{
    if (divergence_factor < 0.0)
        fatal("health.divergence_factor must be non-negative");
    if (divergence_error < 0.0)
        fatal("health.divergence_error must be non-negative");
    if (checkpoint_quanta == 0)
        fatal("health.checkpoint_quanta must be positive");
    if (probation_quanta == 0)
        fatal("health.probation_quanta must be positive");
    if (max_backoff == 0)
        fatal("health.max_backoff must be positive");
}

namespace
{

std::int64_t
lostPackets(const noc::NetworkModel::Accounting &acc)
{
    return static_cast<std::int64_t>(acc.injected) -
           static_cast<std::int64_t>(acc.delivered) -
           static_cast<std::int64_t>(acc.in_flight);
}

} // namespace

HealthMonitor::HealthMonitor(Simulation &sim, const std::string &name,
                             HealthOptions options,
                             const HealthState &state, SimObject *parent)
    : SimObject(sim, name, parent),
      conservationTrips(this, "conservation_trips",
                        "packet-conservation guard trips"),
      deadlockTrips(this, "deadlock_trips",
                    "progress-watchdog guard trips"),
      divergenceTrips(this, "divergence_trips",
                      "estimate-divergence guard trips"),
      timeoutTrips(this, "timeout_trips",
                   "remote reply or retry-round deadlines expired"),
      transportTrips(this, "transport_trips",
                     "remote-backend transport failures caught"),
      backpressureTrips(this, "backpressure_trips",
                        "retired counter, always 0"),
      internalTrips(this, "internal_trips",
                    "backend exceptions caught at the boundary"),
      degradations(this, "degradations",
                   "transitions into the degraded state"),
      recoveries(this, "recoveries",
                 "successful re-engagements of the backend"),
      recoveryFailures(this, "recovery_failures",
                       "probations ended by a fresh trip"),
      checkpoints(this, "checkpoints",
                  "latency-table checkpoints taken"),
      degradedQuanta(this, "degraded_quanta",
                     "quanta run without the detailed backend"),
      syntheticDeliveries(this, "synthetic_deliveries",
                          "deliveries synthesised from estimates"),
      stateValue(this, "state",
                 "0 healthy, 1 degraded, 2 probation",
                 [this] { return static_cast<double>(bridge_state_); }),
      options_(options), bridge_state_(state)
{
}

std::optional<HealthMonitor::Trip>
HealthMonitor::checkBoundary(const Snapshot &s)
{
    // Conservation: every packet the backend accepted must be either
    // delivered or still in flight. Checked against the baseline so a
    // re-engaged backend is not re-tripped by pre-quarantine losses.
    if (s.acc) {
        std::int64_t delta = lostPackets(*s.acc) - lost_baseline_;
        if (delta != 0) {
            ++conservationTrips;
            std::ostringstream os;
            os << "packet conservation violated: injected="
               << s.acc->injected << " delivered=" << s.acc->delivered
               << " in_flight=" << s.acc->in_flight << " ("
               << (delta > 0 ? "lost " : "duplicated ")
               << (delta > 0 ? delta : -delta) << ")";
            return Trip{ErrorKind::Conservation, os.str()};
        }
    }

    // Progress watchdog: packets in flight but no delivery progress
    // across enough cycles means the detailed network wedged.
    if (options_.watchdog_cycles > 0 && s.acc) {
        bool progressed = !have_last_delivered_ ||
                          s.acc->delivered != last_delivered_;
        last_delivered_ = s.acc->delivered;
        have_last_delivered_ = true;
        if (s.acc->in_flight > 0 && !progressed) {
            stalled_cycles_ += s.quantum_cycles;
            if (stalled_cycles_ >= options_.watchdog_cycles) {
                ++deadlockTrips;
                std::ostringstream os;
                os << "no delivery progress for " << stalled_cycles_
                   << " cycles with " << s.acc->in_flight
                   << " packets in flight (deadlock/livelock)";
                return Trip{ErrorKind::Deadlock, os.str()};
            }
        } else {
            stalled_cycles_ = 0;
        }
    }

    // Divergence: the tuned table left its physical bounds, or the
    // per-quantum estimate error blew up — the feedback is poisoned.
    if (options_.divergence_factor > 0.0 &&
        s.table_seed_ratio > options_.divergence_factor) {
        ++divergenceTrips;
        std::ostringstream os;
        os << "latency table diverged: max tuned/zero-load ratio "
           << s.table_seed_ratio << " exceeds "
           << options_.divergence_factor;
        return Trip{ErrorKind::Divergence, os.str()};
    }
    if (options_.divergence_error > 0.0 && s.err_samples > 0) {
        double mean = s.err_abs_sum / static_cast<double>(s.err_samples);
        if (mean > options_.divergence_error) {
            ++divergenceTrips;
            std::ostringstream os;
            os << "estimate error diverged: mean |error| " << mean
               << " cycles over " << s.err_samples
               << " deliveries exceeds " << options_.divergence_error;
            return Trip{ErrorKind::Divergence, os.str()};
        }
    }

    return std::nullopt;
}

void
HealthMonitor::rebase(
    const std::optional<noc::NetworkModel::Accounting> &acc)
{
    lost_baseline_ = acc ? lostPackets(*acc) : 0;
    have_last_delivered_ = false;
    last_delivered_ = 0;
    stalled_cycles_ = 0;
}

void
HealthMonitor::noteTrip(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::Conservation:
        ++conservationTrips;
        break;
      case ErrorKind::Deadlock:
        ++deadlockTrips;
        break;
      case ErrorKind::Divergence:
        ++divergenceTrips;
        break;
      case ErrorKind::Timeout:
        ++timeoutTrips;
        break;
      case ErrorKind::Transport:
        ++transportTrips;
        break;
      default:
        ++internalTrips;
        break;
    }
}

void
HealthMonitor::save(ArchiveWriter &aw) const
{
    aw.beginSection("health");
    aw.putU64(last_delivered_);
    aw.putBool(have_last_delivered_);
    aw.putU64(stalled_cycles_);
    aw.putI64(lost_baseline_);
    aw.endSection();
}

void
HealthMonitor::restore(ArchiveReader &ar)
{
    ar.expectSection("health");
    last_delivered_ = ar.getU64();
    have_last_delivered_ = ar.getBool();
    stalled_cycles_ = ar.getU64();
    lost_baseline_ = ar.getI64();
    ar.endSection();
}

} // namespace cosim
} // namespace rasim
