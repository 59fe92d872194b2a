/**
 * @file
 * The rasim-nocd fleet supervisor: spawns one worker daemon per
 * endpoint, watches them with waitpid and (optionally) heartbeat Ping
 * probes, restarts whatever dies with deterministic exponential
 * backoff, and republishes a live endpoints registry that
 * RemoteNetwork clients re-resolve on every cold open
 * (network.remote.registry).
 *
 * This is the process half of the crash-anywhere story (DESIGN.md
 * section 13): the client's recovery lineage makes a worker loss
 * survivable, the supervisor makes it *repeatable* — a respawned
 * worker re-listens on the same endpoint, where the client's next cold
 * open can rebuild its session from the lineage, so N sequential
 * failures end bit-identical to a fault-free run.
 *
 * The registry file is rewritten atomically (tmp + rename) on every
 * state change:
 *
 *   rasim-registry v1
 *   worker <idx> <addr> <up|down> pid <pid> restarts <n>
 *
 * Liveness has two tiers: waitpid catches a worker that died (crash,
 * OOM-kill, SIGKILL from a chaos script) the moment it exits, and the
 * heartbeat probe catches one that is alive but wedged — a worker
 * that misses heartbeat_miss_limit consecutive Pings is killed and
 * respawned like any other crash.
 *
 * Restart backoff is a pure function of the worker's restart count
 * (base * multiplier^restarts, capped), so a seeded chaos soak
 * produces the identical respawn schedule on every run.
 */

#ifndef RASIM_IPC_SUPERVISOR_HH
#define RASIM_IPC_SUPERVISOR_HH

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rasim
{
namespace ipc
{

struct SupervisorOptions
{
    /** Worker argv prefix: binary path plus fixed arguments; the
     *  supervisor appends each worker's endpoint address. */
    std::vector<std::string> worker_cmd;
    /** One worker per endpoint, in the order clients prefer them. */
    std::vector<std::string> endpoints;
    /** Registry file republished on every fleet state change; empty =
     *  no registry (clients keep their static endpoint list). */
    std::string registry_path;
    /** Probe cadence per worker, in ms; 0 = waitpid-only liveness. */
    double heartbeat_ms = 0.0;
    /** Budget for one Ping/Pong round trip, in ms. */
    double heartbeat_timeout_ms = 1000.0;
    /** Consecutive missed probes that declare a live worker wedged
     *  (it is then killed and respawned). */
    std::uint64_t heartbeat_miss_limit = 3;
    /** First restart delay, in ms. */
    double restart_backoff_base_ms = 50.0;
    /** Growth factor of successive restart delays. */
    double restart_backoff_multiplier = 2.0;
    /** Restart delay ceiling, in ms. */
    double restart_backoff_max_ms = 2000.0;
    /** Give up on a worker after this many restarts (0 = never). */
    std::uint64_t max_restarts = 0;
    /** Monitor poll period, in ms (bounds crash-detection latency
     *  between heartbeats). */
    double poll_ms = 20.0;
};

/**
 * Spawns and babysits the worker fleet. run() blocks until stop();
 * tests run the monitor on their own thread and drive crashes by
 * SIGKILLing workerPid(i) directly.
 */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions opts);
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Spawn every worker and write the first registry. Throws
     *  SimError{Config} when a worker cannot even be forked. */
    void startFleet();

    /** Monitor loop: reap, respawn, probe, republish. Returns after
     *  stop(), leaving the fleet terminated. */
    void run();

    /** Ask run() to wind down: SIGTERM every worker, reap, return.
     *  Safe from any thread and from signal handlers. */
    void stop() { stop_.store(true, std::memory_order_relaxed); }

    /** @name Fleet observability (tests, stats) */
    /// @{
    std::size_t workers() const { return opts_.endpoints.size(); }
    /** Live pid of worker @p i, or -1 while it is down. */
    pid_t workerPid(std::size_t i) const;
    bool workerUp(std::size_t i) const;
    std::uint64_t restartsOf(std::size_t i) const;
    /** Total restarts across the fleet. */
    std::uint64_t restarts() const;
    std::uint64_t heartbeatMisses() const
    {
        return heartbeat_misses_.load(std::memory_order_relaxed);
    }
    const SupervisorOptions &options() const { return opts_; }
    /// @}

  private:
    using Clock = std::chrono::steady_clock;

    struct WorkerProc
    {
        pid_t pid = -1;
        bool up = false;
        bool abandoned = false; ///< max_restarts exhausted
        std::uint64_t restarts = 0;
        std::uint64_t missed_beats = 0;
        Clock::time_point respawn_at{};
        Clock::time_point next_probe{};
    };

    /** fork + exec worker @p i; records the pid. */
    void spawn(std::size_t i);
    /** Deterministic restart delay for a worker with @p restarts
     *  restarts behind it. */
    double backoffMs(std::uint64_t restarts) const;
    /** waitpid sweep: reap dead workers, schedule their respawns. */
    bool reapAndRespawn();
    /** Ping probe sweep (no-op when heartbeat_ms == 0). */
    bool probeFleet();
    /** Rewrite the registry atomically (tmp + rename). */
    void writeRegistry() const;
    /** SIGTERM (then reap) the whole fleet. */
    void terminateFleet();

    SupervisorOptions opts_;
    mutable std::mutex mu_; ///< guards fleet_ against observer reads
    std::vector<WorkerProc> fleet_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> heartbeat_misses_{0};
    bool started_ = false;
};

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_SUPERVISOR_HH
