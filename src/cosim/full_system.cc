#include "cosim/full_system.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace rasim
{
namespace cosim
{

Mode
modeFromName(const std::string &name)
{
    return config::valueOf(name, mode_names, "mode");
}

const char *
toString(Mode mode)
{
    return config::nameOf(mode, mode_names);
}

int
defaultEngineWorkers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 2 ? static_cast<int>(std::min(2u, hw - 2)) : 0;
}

void
CheckpointOptions::validate() const
{
    if (keep == 0)
        fatal("checkpoint.keep must be positive");
    if (interval_quanta > 0 && dir.empty())
        fatal("checkpoint.dir must be set when checkpointing is on");
}

void
FullSystemOptions::validate() const
{
    // run() steps by this in every mode, not only the ones whose
    // bridge exchanges at it.
    if (quantum == 0)
        fatal("system.quantum must be positive");
    if (engine_workers < 0)
        fatal("system.engine_workers must be non-negative");
    if (network_backend != "inproc" && network_backend != "remote") {
        fatal("network.backend must be inproc or remote, not '",
              network_backend, "'");
    }
}

FullSystemOptions
FullSystemOptions::fromConfig(const Config &cfg)
{
    return config::parse<FullSystemOptions>(cfg);
}

FullSystem::FullSystem(const Config &cfg, FullSystemOptions options,
                       ipc::ChannelDecorator decorate)
    : options_(std::move(options))
{
    // Config hygiene: the parsers consulted every key they know, so
    // a key left unread is a misspelling ("noc.colums") that would
    // otherwise fall back to a default without a word.
    cfg.warnUnread();
    options_.validate();

    sim_ = std::make_unique<Simulation>(options_.sim);

    // Backend network of the requested fidelity.
    noc::NetworkModel *backend = nullptr;
    switch (options_.mode) {
      case Mode::Abstract:
        abstract_net_ = std::make_unique<abstractnet::AbstractNetwork>(
            *sim_, "net", options_.noc,
            abstractnet::AbstractNetwork::Mode::Static, options_.abstract);
        backend = abstract_net_.get();
        break;
      case Mode::TunedAbstract:
        abstract_net_ = std::make_unique<abstractnet::AbstractNetwork>(
            *sim_, "net", options_.noc,
            abstractnet::AbstractNetwork::Mode::Tuned, options_.abstract);
        backend = abstract_net_.get();
        break;
      case Mode::CosimCycle:
      case Mode::CosimGpu:
      case Mode::Monolithic:
        if (options_.network_backend == "remote") {
            // The detailed fabric lives in a rasim-nocd server; the
            // server hosts the parallel engine too, so the requested
            // worker count travels with the session.
            noc::remote::RemoteOptions ro = options_.remote;
            ro.engine_workers =
                options_.parallel ? options_.engine_workers : 0;
            remote_net_ = std::make_unique<noc::remote::RemoteNetwork>(
                *sim_, "net", options_.noc, ro, nullptr,
                std::move(decorate));
            backend = remote_net_.get();
        } else {
            detailed_net_ =
                noc::makeDetailedNetwork(*sim_, "net", options_.noc);
            backend = detailed_net_.get();
        }
        break;
    }
    if (options_.network_backend == "remote" && !remote_net_) {
        fatal("network.backend=remote needs a cycle-network mode "
              "(cosim, cosim-gpu or monolithic), not ",
              toString(options_.mode));
    }

    QuantumBridge::Options bo;
    bo.feedback = options_.feedback;
    bo.health = options_.health;
    bo.abstract = options_.abstract;
    switch (options_.mode) {
      case Mode::Abstract:
      case Mode::TunedAbstract:
        // Event-exact integration: the quantum degenerates to a cycle.
        bo.quantum = 1;
        bo.overlap = false;
        break;
      case Mode::Monolithic:
        bo.quantum = 1;
        bo.overlap = false;
        if (options_.parallel)
            bo.engine_workers = options_.engine_workers;
        break;
      case Mode::CosimCycle:
        bo.quantum = options_.quantum;
        bo.overlap = false;
        bo.coupling = options_.conservative
                          ? QuantumBridge::Coupling::Conservative
                          : QuantumBridge::Coupling::Reciprocal;
        if (options_.parallel)
            bo.engine_workers = options_.engine_workers;
        break;
      case Mode::CosimGpu:
        bo.quantum = options_.quantum;
        bo.overlap = true;
        bo.coupling = options_.conservative
                          ? QuantumBridge::Coupling::Conservative
                          : QuantumBridge::Coupling::Reciprocal;
        bo.engine_workers = options_.engine_workers;
        break;
    }
    // With a remote backend the parallel engine runs inside the
    // server (its worker count travels in the Hello above); a client
    // pool would have nothing to drive.
    if (remote_net_)
        bo.engine_workers = 0;
    bridge_ = std::make_unique<QuantumBridge>(*sim_, "bridge", *backend,
                                              options_.noc, bo);

    memory_ = std::make_unique<mem::MemorySystem>(*sim_, "mem", *bridge_,
                                                  options_.mem);

    const workload::AppProfile &app = workload::appProfile(options_.app);
    std::uint64_t ops = options_.ops_per_core ? options_.ops_per_core
                                              : app.ops_per_core;
    auto nodes = static_cast<NodeId>(backend->numNodes());
    for (NodeId n = 0; n < nodes; ++n) {
        cpu::CoreParams cp;
        cp.mem_ratio = app.mem_ratio;
        cp.ops_budget = ops;
        cores_.push_back(std::make_unique<cpu::SyntheticCore>(
            *sim_, "core" + std::to_string(n), n, memory_->l1(n),
            std::make_unique<workload::SyntheticStream>(
                app.stream, n, options_.mem.block_bytes,
                sim_->makeRng(0xa99 + n)),
            cp));
    }

    if (!options_.checkpoint.restore.empty())
        restoreFromPath(options_.checkpoint.restore);
}

FullSystem::~FullSystem() = default;

bool
FullSystem::allCoresDone() const
{
    for (const auto &core : cores_)
        if (!core->done())
            return false;
    return true;
}

Tick
FullSystem::run(Tick limit)
{
    Tick t = boundary_;
    while (t < limit) {
        t += options_.quantum;
        bridge_->advanceCoupled(t);
        boundary_ = t;
        bool done = allCoresDone() && memory_->quiescent() &&
                    bridge_->idle();
        if (!done)
            maybeCheckpoint(t);
        if (done)
            break;
    }
    if (!allCoresDone())
        warn("run hit the tick limit with unfinished cores");
    Tick finish = 0;
    for (const auto &core : cores_)
        finish = std::max(finish, core->finishTick());
    return finish;
}

namespace
{

/** Keyed on the absolute boundary so a restored run checkpoints at
 *  exactly the same ticks as an uninterrupted one. */
bool
atCheckpointBoundary(Tick t, Tick quantum, std::uint64_t interval)
{
    return interval > 0 && quantum > 0 && t % quantum == 0 &&
           (t / quantum) % interval == 0;
}

std::string
checkpointName(Tick t)
{
    std::ostringstream os;
    os << "ckpt-" << std::setw(20) << std::setfill('0') << t << ".ckpt";
    return os.str();
}

bool
isCheckpointName(const std::string &name)
{
    return name.size() > 10 && name.rfind("ckpt-", 0) == 0 &&
           name.size() >= 5 &&
           name.compare(name.size() - 5, 5, ".ckpt") == 0;
}

/** Retained images in @p dir, newest (largest tick) first. Zero-padded
 *  names make the lexicographic order the chronological one. */
std::vector<std::filesystem::path>
listCheckpoints(const std::filesystem::path &dir)
{
    std::vector<std::filesystem::path> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            isCheckpointName(entry.path().filename().string())) {
            out.push_back(entry.path());
        }
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.filename().string() > b.filename().string();
              });
    return out;
}

bool
readFile(const std::filesystem::path &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return static_cast<bool>(is);
}

} // namespace

void
FullSystem::save(ArchiveWriter &aw) const
{
    // The state-shaping configuration record: a checkpoint only
    // restores into a system built from the same knobs.
    aw.beginSection("meta");
    config::putRecord(aw, config::stateShaping(config::record(options_)));
    aw.endSection();

    aw.beginSection("sim");
    aw.putU64(sim_->curTick());
    aw.putU64(sim_->eventq().nextSequence());
    aw.putU64(sim_->eventq().numProcessed());
    aw.putU64(boundary_);
    aw.endSection();

    saveStats(aw, sim_->statsRoot());

    if (detailed_net_) {
        detailed_net_->save(aw);
    } else if (remote_net_) {
        // The paired-checkpoint RPC only touches transport state and
        // transport statistics; logically the system is unchanged.
        remote_net_->save(aw);
    } else {
        abstract_net_->save(aw);
    }
    bridge_->save(aw);
    memory_->save(aw);
    for (const auto &core : cores_)
        core->save(aw);
}

void
FullSystem::saveTo(std::ostream &os) const
{
    ArchiveWriter aw;
    save(aw);
    aw.writeTo(os);
}

bool
FullSystem::restoreArchive(ArchiveReader &ar, std::string *why)
{
    ar.expectSection("meta");
    std::string key = config::firstDifference(
        config::getRecord(ar),
        config::stateShaping(config::record(options_)));
    if (!key.empty()) {
        if (why)
            *why = "configuration mismatch: " + key;
        return false;
    }
    ar.endSection();

    // Validation passed — from here on the image is committed to and
    // structural trouble is a panic, not a fallback.
    ar.expectSection("sim");
    Tick cur_tick = ar.getU64();
    std::uint64_t next_seq = ar.getU64();
    std::uint64_t num_processed = ar.getU64();
    boundary_ = ar.getU64();
    ar.endSection();
    // First, so the components' restore() calls can re-schedule their
    // pending events against the restored clock and sequence space.
    sim_->eventq().restoreState(cur_tick, next_seq, num_processed);

    restoreStats(ar, sim_->statsRoot());

    if (detailed_net_)
        detailed_net_->restore(ar);
    else if (remote_net_)
        remote_net_->restore(ar);
    else
        abstract_net_->restore(ar);
    bridge_->restore(ar);
    memory_->restore(ar);
    for (const auto &core : cores_)
        core->restore(ar);

    // init() would schedule fresh startup events on top of the
    // restored ones; the archive already carries every pending event.
    sim_->markInitialized();
    return true;
}

bool
FullSystem::restoreFromBytes(std::string bytes, std::string *why)
{
    ArchiveReader ar(std::move(bytes));
    if (!ar.ok()) {
        if (why)
            *why = ar.error();
        return false;
    }
    return restoreArchive(ar, why);
}

void
FullSystem::restoreFromPath(const std::string &path)
{
    namespace fs = std::filesystem;
    // Candidate chain: the named image (or the newest in the named
    // directory) first, then every older retained sibling — so a
    // corrupt or mismatched newest image degrades the restore instead
    // of aborting it.
    std::vector<fs::path> candidates;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        candidates = listCheckpoints(path);
        if (candidates.empty())
            fatal("checkpoint.restore: no checkpoints in '", path, "'");
    } else {
        fs::path p(path);
        candidates.push_back(p);
        for (const auto &sibling : listCheckpoints(p.parent_path())) {
            if (sibling.filename().string() < p.filename().string())
                candidates.push_back(sibling);
        }
    }

    for (const auto &candidate : candidates) {
        std::string bytes;
        if (!readFile(candidate, bytes)) {
            warn("checkpoint.restore: cannot read '", candidate.string(),
                 "', trying an older image");
            continue;
        }
        std::string why;
        if (restoreFromBytes(std::move(bytes), &why)) {
            inform("restored from checkpoint '", candidate.string(),
                   "' at tick ", boundary_);
            return;
        }
        warn("checkpoint.restore: rejected '", candidate.string(),
             "' (", why, "), trying an older image");
    }
    fatal("checkpoint.restore: no usable checkpoint for '", path, "'");
}

std::string
FullSystem::writeCheckpoint()
{
    namespace fs = std::filesystem;
    const fs::path dir(options_.checkpoint.dir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("cannot create checkpoint directory '", dir.string(),
              "': ", ec.message());

    ArchiveWriter aw;
    save(aw);
    std::string bytes = aw.finish();

    // Crash-safe publication: the image becomes visible under its
    // final name only after its bytes are durable, so a crash at any
    // point leaves either the old set or the old set plus a complete
    // new image — never a torn file.
    fs::path final_path = dir / checkpointName(boundary_);
    fs::path tmp_path = final_path;
    tmp_path += ".tmp";
    int fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY,
                    0644);
    if (fd < 0)
        fatal("cannot create '", tmp_path.string(), "'");
    const char *p = bytes.data();
    std::size_t left = bytes.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            ::close(fd);
            fatal("short write to '", tmp_path.string(), "'");
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        ::close(fd);
        fatal("fsync failed on '", tmp_path.string(), "'");
    }
    ::close(fd);
    fs::rename(tmp_path, final_path, ec);
    if (ec)
        fatal("cannot publish checkpoint '", final_path.string(),
              "': ", ec.message());
    if (int dfd = ::open(dir.c_str(), O_RDONLY); dfd >= 0) {
        ::fsync(dfd); // make the rename itself durable
        ::close(dfd);
    }

    rotateCheckpoints();
    return final_path.string();
}

void
FullSystem::rotateCheckpoints()
{
    auto images = listCheckpoints(options_.checkpoint.dir);
    for (std::size_t i = options_.checkpoint.keep; i < images.size();
         ++i) {
        std::error_code ec;
        std::filesystem::remove(images[i], ec);
    }
}

void
FullSystem::maybeCheckpoint(Tick t)
{
    if (!atCheckpointBoundary(t, options_.quantum,
                              options_.checkpoint.interval_quanta)) {
        return;
    }
    writeCheckpoint();
}

double
FullSystem::meanPacketLatency() const
{
    if (detailed_net_)
        return detailed_net_->meanLatency();
    if (remote_net_)
        return remote_net_->totalLatency.mean();
    return abstract_net_->totalLatency.mean();
}

double
FullSystem::meanPacketLatency(noc::MsgClass cls) const
{
    if (detailed_net_)
        return detailed_net_->vnetLatency[static_cast<int>(cls)]->mean();
    if (remote_net_)
        return remote_net_->vnetLatency[static_cast<int>(cls)]->mean();
    return abstract_net_->vnetLatency[static_cast<int>(cls)]->mean();
}

std::uint64_t
FullSystem::packetsDelivered() const
{
    if (detailed_net_)
        return detailed_net_->deliveredCount();
    if (remote_net_)
        return static_cast<std::uint64_t>(
            remote_net_->packetsDelivered.value());
    return static_cast<std::uint64_t>(
        abstract_net_->packetsDelivered.value());
}

} // namespace cosim
} // namespace rasim
