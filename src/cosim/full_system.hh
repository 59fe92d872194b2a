/**
 * @file
 * Top-level assembly: cores + memory hierarchy + a network model of
 * the chosen fidelity, coupled through the reciprocal-abstraction
 * bridge. This is the public entry point examples and benchmarks use.
 */

#ifndef RASIM_COSIM_FULL_SYSTEM_HH
#define RASIM_COSIM_FULL_SYSTEM_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "abstractnet/abstract_network.hh"
#include "cosim/bridge.hh"
#include "cpu/core.hh"
#include "mem/memory_system.hh"
#include "noc/cycle_network.hh"
#include "noc/remote/remote_network.hh"
#include "sim/config.hh"
#include "sim/simulation.hh"
#include "workload/app_profiles.hh"

namespace rasim
{
namespace cosim
{

/** Network fidelity / integration modes (see DESIGN.md section 4). */
enum class Mode
{
    /** Static analytical network model (the paper's baseline). */
    Abstract,
    /** Analytical model driven by a reciprocally tuned table. */
    TunedAbstract,
    /** Reciprocal co-simulation with the cycle-level network. */
    CosimCycle,
    /** Co-simulation with the coprocessor engine, overlapped. */
    CosimGpu,
    /** Cycle-level network at quantum 1: the exact reference. */
    Monolithic,
};

/** Spellings of Mode. */
inline constexpr config::Name<Mode> mode_names[] = {
    {"abstract", Mode::Abstract},
    {"tuned", Mode::TunedAbstract},
    {"cosim", Mode::CosimCycle},
    {"cosim-gpu", Mode::CosimGpu},
    {"monolithic", Mode::Monolithic},
};

Mode modeFromName(const std::string &name);
const char *toString(Mode mode);

/**
 * Crash-safe periodic checkpointing. Checkpoints
 * are taken at quantum boundaries — the only globally consistent
 * points of the coupled pair — and written atomically (temp file,
 * fsync, rename) so a crash mid-write never clobbers the previous
 * image.
 */
struct CheckpointOptions
{
    /** Take a checkpoint every N run-loop quanta (0 = off). */
    std::uint64_t interval_quanta = 0;
    /** Directory receiving ckpt-<tick>.ckpt images. */
    std::string dir = "checkpoints";
    /** Retained images; older ones are deleted after each write. */
    std::uint64_t keep = 3;
    /** Boot from this image (or the newest in this directory) instead
     *  of cold-starting. Corrupt or mismatched images fall back to the
     *  next-oldest retained checkpoint. */
    std::string restore;

    void
    keys(config::Binder &v)
    {
        v("checkpoint.interval_quanta", interval_quanta);
        v("checkpoint.dir", dir);
        v("checkpoint.keep", keep);
        v("checkpoint.restore", restore);
    }

    void validate() const;
};

/**
 * min(2, hardware threads - 2), never negative: the pool leaves one
 * hardware thread each to the host and to the bridge's backend
 * thread, so it never oversubscribes the host (0 on hosts with two
 * hardware threads or fewer, or when the count is unknown).
 */
int defaultEngineWorkers();

/**
 * Everything a FullSystem and its components read. keys() declares
 * every configuration key once; code that builds the options itself
 * needs no Config at all.
 */
struct FullSystemOptions
{
    Mode mode = Mode::CosimCycle;
    std::string app = "fft";
    /** Memory operations per core; 0 takes the preset's default. */
    std::uint64_t ops_per_core = 0;
    /** Exchange quantum for the co-simulation modes. */
    Tick quantum = 256;
    /** Reciprocal feedback into the latency table. */
    bool feedback = true;
    /**
     * Force conservative (boundary-blocking) coupling instead of the
     * reciprocal scheme in the co-simulation modes — the baseline the
     * E5 quantum sweep ablates against.
     */
    bool conservative = false;
    /** Worker threads of the pool engine driving the detailed
     *  network's phases. Always used by CosimGpu; other cycle-level
     *  modes use it when @ref parallel is set. Defaults to
     *  defaultEngineWorkers(). */
    int engine_workers = defaultEngineWorkers();
    /**
     * Run the detailed network's phases on the worker pool in the
     * non-overlapped cycle-level modes too (CosimCycle, Monolithic).
     * Bit-identical to serial execution by the determinism contract.
     * On by default: the pool starts no thread until a phase has
     * enough active nodes to pay for the handoff (ParallelEngine's
     * work rule), so small meshes keep running serially; false takes
     * the serial engine outright.
     */
    bool parallel = true;
    /**
     * Where the cycle-level backend runs: "inproc" hosts it in this
     * process, "remote" drives a rasim-nocd server over the quantum
     * RPC protocol. Only meaningful in the cycle-network modes; the
     * abstract modes reject "remote".
     */
    std::string network_backend = "inproc";
    /** Transport configuration of the remote backend. */
    noc::remote::RemoteOptions remote;
    noc::NocParams noc;
    mem::MemParams mem;
    /** Health-guard thresholds and degradation policy. */
    HealthOptions health;
    /** Periodic crash-safe checkpointing. */
    CheckpointOptions checkpoint;
    /** Seed and reference clock. */
    SimParams sim;
    /** Abstract network and latency-table knobs. */
    abstractnet::AbstractParams abstract;

    void
    keys(config::Binder &v)
    {
        v("system.mode", mode, mode_names);
        v("system.app", app);
        v("system.ops_per_core", ops_per_core);
        v("system.quantum", quantum);
        v("system.feedback", feedback);
        v("system.conservative", conservative);
        v("system.engine_workers", engine_workers, config::neutral);
        v("system.parallel", parallel, config::neutral);
        v("network.backend", network_backend);
        v(remote);
        v(noc);
        v(mem);
        v(health);
        v(checkpoint, config::neutral);
        v(sim);
        v(abstract);
    }

    void validate() const;

    /** config::parse() under the name perfbench and the examples
     *  call. */
    static FullSystemOptions fromConfig(const Config &cfg);
};

class FullSystem
{
  public:
    /**
     * @param cfg The configuration @p options were parsed from. No
     *        value is read from it: it only serves the hygiene check,
     *        which warns once per key no parser consulted (a
     *        misspelling such as "noc.colums").
     * @param decorate Test seam, forwarded to the remote backend's
     *        RemoteNetwork: wraps each connection it opens (the chaos
     *        tests inject transport faults here). Unused in-process.
     */
    FullSystem(const Config &cfg, FullSystemOptions options,
               ipc::ChannelDecorator decorate = {});
    ~FullSystem();

    /**
     * Run until every core finished and the protocol drained, or the
     * tick limit is hit.
     * @return the tick the last core finished (the run's "runtime").
     */
    Tick run(Tick limit = 50000000);

    bool allCoresDone() const;

    /** Mean end-to-end packet latency observed by the network. */
    double meanPacketLatency() const;
    /** Mean packet latency per message class (vnet). */
    double meanPacketLatency(noc::MsgClass cls) const;
    /** Packets the network delivered. */
    std::uint64_t packetsDelivered() const;

    Simulation &simulation() { return *sim_; }
    QuantumBridge &bridge() { return *bridge_; }
    mem::MemorySystem &memory() { return *memory_; }
    cpu::SyntheticCore &core(std::size_t i) { return *cores_[i]; }
    std::size_t numCores() const { return cores_.size(); }
    const FullSystemOptions &options() const { return options_; }

    /** Non-null in the cycle-network modes. */
    noc::CycleNetwork *cycleNetwork() { return cycle_net_.get(); }
    /** Non-null in the abstract modes. */
    abstractnet::AbstractNetwork *abstractNetwork()
    {
        return abstract_net_.get();
    }
    /** Non-null when network.backend=remote hosts the cycle network
     *  in a rasim-nocd server. */
    noc::remote::RemoteNetwork *remoteNetwork()
    {
        return remote_net_.get();
    }

    /** @name Checkpoint / restore */
    /// @{
    /**
     * Archive the full dynamic state. Only valid at a quantum boundary
     * (construction time or after run() / advanceCoupled returned).
     */
    void save(ArchiveWriter &aw) const;
    /** Seal a complete archive image onto @p os. */
    void saveTo(std::ostream &os) const;

    /**
     * Restore this (freshly constructed, never run) system from a
     * complete archive image. Validation — magic, version, CRC and the
     * state-shaping configuration record — happens before any state is
     * touched; a failed candidate leaves the system untouched and
     * @p why set ("configuration mismatch: <key>" for a record that
     * differs).
     * Structural errors after validation panic: the CRC passed, so a
     * short or misshapen body is a programming error, not bad input.
     */
    bool restoreFromBytes(std::string bytes, std::string *why = nullptr);

    /**
     * Write an atomic checkpoint of the current state into
     * checkpoint.dir and rotate old images down to checkpoint.keep.
     * @return the path of the image written.
     */
    std::string writeCheckpoint();
    /// @}

  private:
    bool restoreArchive(ArchiveReader &ar, std::string *why);
    /** Boot-time restore honouring the fallback chain. */
    void restoreFromPath(const std::string &path);
    void maybeCheckpoint(Tick t);
    void rotateCheckpoints();

    FullSystemOptions options_;
    /** The run loop's last quantum boundary. run() continues its grid
     *  from here and checkpoints are named and archived at it: the
     *  event queue's clock stays at its last event when the host idles
     *  (a conservative run waiting on the network), so it can lag the
     *  boundary by more than a quantum. */
    Tick boundary_ = 0;
    std::unique_ptr<Simulation> sim_;
    std::unique_ptr<noc::CycleNetwork> cycle_net_;
    std::unique_ptr<noc::remote::RemoteNetwork> remote_net_;
    std::unique_ptr<abstractnet::AbstractNetwork> abstract_net_;
    std::unique_ptr<QuantumBridge> bridge_;
    std::unique_ptr<mem::MemorySystem> memory_;
    std::vector<std::unique_ptr<cpu::SyntheticCore>> cores_;
};

} // namespace cosim
} // namespace rasim

#endif // RASIM_COSIM_FULL_SYSTEM_HH
