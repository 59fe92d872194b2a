/**
 * @file
 * Co-simulation benchmark harness. Runs one named workload through the
 * public cosim::FullSystem API, repeatedly, until a time budget is
 * spent, and prints one JSON object per line on stdout:
 *
 *   {"type":"fingerprint", ...}   build, kernel dispatch and host
 *   {"type":"rep", ...}           one co-simulation: timings, checks,
 *                                 stats digest, per-layer totals
 *   {"type":"end", ...}           peak resident memory of the process
 *
 *   perfbench_harness --workload NAME --seeds N[,N...] --seconds S
 *                     --trace 0|1 --socket PATH --trace-out PATH
 *                     [--min-rounds K]
 *
 * Round r of reps simulates sim.seed = seeds[r mod count]. Untraced
 * reps call FullSystem::run(). With --trace 1 untraced reps
 * alternate with traced ones, which drive the same co-simulation
 * quantum by quantum through QuantumBridge::advanceCoupled and time
 * each layer from outside: the bridge's hostNs/netNs counters and a
 * StepEngine decorator around the detailed network's phases. No
 * simulator code is instrumented.
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cosim/full_system.hh"
#include "ipc/nocd_server.hh"
#include "sim/logging.hh"
#include "sim/parallel_engine.hh"
#include "sim/sim_error.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

using namespace rasim;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The four workloads. Each loads a different layer: the kernel on a
 * sparse large mesh, the host side and per-quantum bridge path with no
 * fabric at all, the RPC path with a dense small mesh, and the worker
 * pool on the largest mesh. Sizes keep one rep near a second on a
 * 4-core host so a run reports a median over many reps, and short
 * enough that the coherence livelock longer runs hit on some seeds
 * stays out of the seed pool run.py draws from. The tick limit, about
 * ten times a clean run's length, turns a livelock into a fast
 * failure.
 */
struct Workload
{
    const char *name;
    std::vector<std::pair<const char *, const char *>> keys;
    Tick tick_limit;
    bool remote = false;
    bool parallel = false;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"noc_fft256",
         {{"system.mode", "cosim"},
          {"system.app", "fft"},
          {"noc.columns", "16"},
          {"noc.rows", "16"},
          {"system.quantum", "256"},
          {"network.kernel", "soa"},
          {"system.ops_per_core", "120"}},
         250000},
        {"host_tuned256",
         {{"system.mode", "tuned"},
          {"system.app", "fft"},
          {"noc.columns", "16"},
          {"noc.rows", "16"},
          {"system.quantum", "1"},
          {"system.ops_per_core", "600"}},
         600000},
        {"rpc_water16",
         {{"system.mode", "cosim"},
          {"system.app", "water"},
          {"noc.columns", "4"},
          {"noc.rows", "4"},
          {"system.quantum", "32"},
          {"network.kernel", "soa"},
          {"network.backend", "remote"},
          {"system.ops_per_core", "4000"}},
         2000000,
         true},
        {"par_fft512",
         {{"system.mode", "cosim"},
          {"system.app", "fft"},
          {"noc.columns", "16"},
          {"noc.rows", "32"},
          {"system.quantum", "256"},
          {"network.kernel", "soa"},
          {"system.parallel", "true"},
          {"system.engine_workers", "2"},
          {"system.ops_per_core", "60"}},
         300000,
         false,
         true},
    };
    return all;
}

/** Worker threads of the pool on the parallel workload. */
constexpr int engine_workers = 2;

/**
 * StepEngine decorator timing every phase the detailed network hands
 * its engine. A cycle's phases are told apart by the phase callable's
 * type, whose name carries the kernel function that created it
 * (compute or commit); anything not from a commit phase counts as
 * compute. Work the fabric does around a phase but outside the engine
 * (occupancy scans, the stat flush) lands in the orchestrator's share.
 * Only the calling thread touches the counters.
 */
class TimingEngine : public StepEngine
{
  public:
    explicit TimingEngine(StepEngine &inner) : inner_(inner) {}

    void
    forEach(std::size_t n,
            const std::function<void(std::size_t)> &fn) override
    {
        bool commit = isCommit(fn.target_type());
        auto t0 = Clock::now();
        inner_.forEach(n, fn);
        account(commit, t0);
    }

    void
    forRange(std::size_t n,
             const std::function<void(std::size_t, std::size_t)> &fn)
        override
    {
        bool commit = isCommit(fn.target_type());
        auto t0 = Clock::now();
        inner_.forRange(n, fn);
        account(commit, t0);
    }

    const char *name() const override { return "timing"; }

    double computeNs() const { return compute_ns_; }
    double commitNs() const { return commit_ns_; }
    std::uint64_t phases() const { return phases_; }

  private:
    bool
    isCommit(const std::type_info &type)
    {
        for (const auto &[t, commit] : seen_)
            if (*t == type)
                return commit;
        bool commit = std::strstr(type.name(), "commit") != nullptr;
        seen_.emplace_back(&type, commit);
        return commit;
    }

    void
    account(bool commit, Clock::time_point t0)
    {
        double ns =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        (commit ? commit_ns_ : compute_ns_) += ns;
        ++phases_;
    }

    StepEngine &inner_;
    std::vector<std::pair<const std::type_info *, bool>> seen_;
    double compute_ns_ = 0.0;
    double commit_ns_ = 0.0;
    std::uint64_t phases_ = 0;
};

/**
 * Fixed work that gauges the host's current speed. The benchmark runs
 * on a share of a host whose speed swings by up to 2x within minutes
 * (neighbours on the same cores and caches), far more than the
 * simulator's own run-to-run noise. Each rep is bracketed by two calls
 * of this, and run.py scales the rep's times by a reference
 * calibration time over the mean of the two, so a median compares the
 * simulator, not the host's load at that moment.
 *
 * The work is a small discrete-event loop shaped like the simulator's
 * hot path: a binary heap of pending events over an 8 MiB node table
 * (past the core's own caches, inside the shared one), a hash of the
 * node's state per event and a data-dependent next node. It lives in
 * the benchmark, so no change to the simulator moves it. A workload
 * that keeps several threads busy runs one copy per thread at once, so
 * the gauge also sees how many cores the host grants it.
 */
class Calibrator
{
  public:
    explicit Calibrator(int threads)
        : tables_(threads, std::vector<Node>(node_count)), sums_(threads)
    {
    }

    Calibrator(const Calibrator &) = delete;
    Calibrator &operator=(const Calibrator &) = delete;

    /** Seconds until every copy of the fixed work finished. */
    double
    run()
    {
        auto t0 = Clock::now();
        std::vector<std::thread> helpers;
        for (std::size_t i = 1; i < tables_.size(); ++i)
            helpers.emplace_back([this, i] { sums_[i] = work(tables_[i]); });
        sums_[0] = work(tables_[0]);
        for (std::thread &h : helpers)
            h.join();
        double s = secondsSince(t0);
        for (std::uint64_t sum : sums_)
            sink_ = sink_ + sum;
        return s;
    }

  private:
    struct Node
    {
        std::uint64_t state[8];
    };

    static std::uint64_t
    work(std::vector<Node> &nodes) noexcept
    {
        for (std::size_t i = 0; i < nodes.size(); ++i)
            for (std::size_t j = 0; j < 8; ++j)
                nodes[i].state[j] = i * 8 + j;
        using Event = std::pair<std::uint64_t, std::uint32_t>;
        std::priority_queue<Event, std::vector<Event>, std::greater<>>
            heap;
        for (std::uint32_t i = 0; i < pending; ++i)
            heap.emplace(i, (i * 2654435761u) % node_count);

        std::uint64_t sum = 0;
        for (int i = 0; i < event_count; ++i) {
            auto [t, n] = heap.top();
            heap.pop();
            Node &x = nodes[n];
            std::uint64_t h = (x.state[t & 7] ^ t) * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 29;
            x.state[(h >> 3) & 7] += h;
            sum += h;
            heap.emplace(t + 1 + (h >> 58),
                         static_cast<std::uint32_t>(h % node_count));
        }
        return sum;
    }

    static constexpr std::uint32_t node_count = 1u << 17;
    static constexpr std::uint32_t pending = 4096;
    static constexpr int event_count = 600000;

    /** One node table per copy of the work. */
    std::vector<std::vector<Node>> tables_;
    std::vector<std::uint64_t> sums_;
    /** Keeps the loops' results live. */
    volatile std::uint64_t sink_ = 0;
};

/** One quantum of a traced rep, in microseconds from the rep start. */
struct Span
{
    double start_us;
    double dur_us;
    double host_us;
    double net_us;
    double compute_us;
    double commit_us;
};

struct Args
{
    const Workload *workload = nullptr;
    std::vector<std::uint64_t> seeds;
    double seconds = 10.0;
    bool trace = false;
    /** Full rep cycles run even when @ref seconds is already spent. */
    int min_rounds = 2;
    std::string socket;
    std::string trace_out;
};

/** A NocServer on a thread of this process, stopped and joined on
 *  destruction (which also removes its socket file). */
class InProcessServer
{
  public:
    explicit InProcessServer(const std::string &address)
    {
        ipc::NocServerOptions opts;
        opts.address = address;
        server_ = std::make_unique<ipc::NocServer>(opts);
        thread_ = std::thread([this] { server_->run(); });
    }

    ~InProcessServer()
    {
        server_->stop();
        thread_.join();
    }

    InProcessServer(const InProcessServer &) = delete;
    InProcessServer &operator=(const InProcessServer &) = delete;

  private:
    std::unique_ptr<ipc::NocServer> server_;
    std::thread thread_;
};

/** How a rep runs. The in-process twin of the remote workload gives
 *  the baseline for the per-quantum RPC overhead and the kernel split
 *  of the fabric the server hosts. */
enum class RepKind
{
    Plain,
    Traced,
    TracedTwin,
};

const char *
kindName(RepKind k)
{
    switch (k) {
      case RepKind::Plain:
        return "plain";
      case RepKind::Traced:
        return "traced";
      case RepKind::TracedTwin:
        return "twin";
    }
    return "?";
}

Config
makeConfig(const Args &args, RepKind kind, std::uint64_t seed)
{
    Config cfg;
    for (const auto &[k, v] : args.workload->keys)
        cfg.set(k, std::string(v));
    cfg.set("sim.seed", seed);
    if (kind == RepKind::TracedTwin)
        cfg.set("network.backend", std::string("inproc"));
    if (args.workload->remote && kind != RepKind::TracedTwin) {
        cfg.set("remote.socket", "unix:" + args.socket);
        // A hung server trips the health guards well inside run.py's
        // per-run timeout, failing this rep's checks instead of wedging
        // the benchmark.
        cfg.set("remote.connect_timeout_ms", 5000.0);
        cfg.set("remote.quantum_timeout_ms", 10000.0);
    }
    // The traced rep installs its own pool under the timing decorator.
    if (args.workload->parallel && kind != RepKind::Plain)
        cfg.set("system.parallel", false);
    return cfg;
}

/** Wall-clock or scheduling-dependent counters, outside the
 *  bit-identity contract and therefore outside the digest. */
bool
excludedFromDigest(const std::string &name)
{
    static const char *const excluded[] = {
        "backoff_ms_total", "spec_hits", "spec_rebases",
        "sched_throttles",
    };
    for (const char *e : excluded)
        if (name == e)
            return true;
    return false;
}

void
digestGroup(const stats::Group &g, std::uint64_t &h)
{
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL; // FNV-1a
        }
    };
    std::string path = g.path();
    for (const stats::Stat *s : g.statList()) {
        if (excludedFromDigest(s->name()))
            continue;
        for (const auto &[sub, v] : s->values()) {
            std::string key = path + "." + s->name() + "." + sub;
            mix(key.data(), key.size() + 1);
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            mix(&bits, sizeof bits);
        }
    }
    for (const stats::Group *c : g.children())
        digestGroup(*c, h);
}

std::string
statsDigest(cosim::FullSystem &fs)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    digestGroup(fs.simulation().statsRoot(), h);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

/** Sum of one scalar stat over every core / cache / directory. */
template <typename Get>
double
sumNodes(std::size_t n, Get get)
{
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        s += get(static_cast<NodeId>(i));
    return s;
}

/** Output checks of one finished co-simulation. Returns the names of
 *  the checks that failed. */
std::vector<std::string>
checkRun(cosim::FullSystem &fs, std::uint64_t warns_before)
{
    std::vector<std::string> failed;
    if (!fs.allCoresDone())
        failed.push_back("cores_done");

    std::optional<noc::NetworkModel::Accounting> acc;
    if (fs.cycleNetwork())
        acc = fs.cycleNetwork()->accounting();
    else if (fs.remoteNetwork())
        acc = fs.remoteNetwork()->accounting();
    else if (fs.abstractNetwork())
        acc = fs.abstractNetwork()->accounting();
    if (!acc || acc->injected != acc->delivered + acc->in_flight ||
        acc->in_flight != 0) {
        failed.push_back("conservation");
    }

    cosim::QuantumBridge &br = fs.bridge();
    if (br.packetsForwarded.value() != br.packetsDelivered.value())
        failed.push_back("forwarded_eq_delivered");

    const cosim::HealthMonitor *hm = br.health();
    double trips = 0.0;
    if (hm) {
        trips = hm->conservationTrips.value() + hm->deadlockTrips.value() +
                hm->divergenceTrips.value() + hm->timeoutTrips.value() +
                hm->transportTrips.value() +
                hm->backpressureTrips.value() +
                hm->internalTrips.value() + hm->degradedQuanta.value();
    }
    if (!hm || trips != 0.0 ||
        br.healthState() != cosim::QuantumBridge::HealthState::Healthy) {
        failed.push_back("health");
    }
    if (warnCount() != warns_before)
        failed.push_back("warnings");
    return failed;
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        if (static_cast<unsigned char>(c) >= 0x20)
            std::putchar(c);
    }
    std::putchar('"');
}

/** Named numbers of one rep, printed as a flat JSON object. */
struct Fields
{
    std::vector<std::pair<std::string, double>> v;

    void add(const std::string &k, double x) { v.emplace_back(k, x); }

    void
    print() const
    {
        std::putchar('{');
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::printf("%s\"%s\":%.17g", i ? "," : "", v[i].first.c_str(),
                        std::isfinite(v[i].second) ? v[i].second : 0.0);
        }
        std::putchar('}');
    }
};

/** Simulated counts of the host side and the coupling. Deterministic:
 *  a speed-only change leaves every one of these unchanged. */
void
simulatedCounts(cosim::FullSystem &fs, Fields &f)
{
    std::size_t n = fs.numCores();
    mem::MemorySystem &m = fs.memory();
    double l1_acc = sumNodes(n, [&m](NodeId i) {
        const mem::L1Cache &c = m.l1(i);
        return c.loadHits.value() + c.loadMisses.value() +
               c.storeHits.value() + c.storeMisses.value();
    });
    double l1_miss = sumNodes(n, [&m](NodeId i) {
        const mem::L1Cache &c = m.l1(i);
        return c.loadMisses.value() + c.storeMisses.value();
    });
    f.add("mem.l1_accesses", l1_acc);
    f.add("mem.l1_miss_rate", l1_acc > 0 ? l1_miss / l1_acc : 0.0);
    f.add("mem.dir_msgs", sumNodes(n, [&m](NodeId i) {
              const mem::Directory &d = m.directory(i);
              return d.getSReceived.value() + d.getMReceived.value() +
                     d.putMReceived.value();
          }));
    f.add("cpu.ops_issued", sumNodes(n, [&fs](NodeId i) {
              return fs.core(i).opsIssued.value();
          }));
    f.add("cpu.stall_retries", sumNodes(n, [&fs](NodeId i) {
              return fs.core(i).stallRetries.value();
          }));

    cosim::QuantumBridge &br = fs.bridge();
    f.add("abstractnet.est_err_mean", br.estimateError.mean());
    f.add("abstractnet.est_err_stdev", br.estimateError.stddev());
    double ticks = static_cast<double>(fs.simulation().curTick());
    f.add("sim.ticks", ticks);
    f.add("noc.offered_load",
          ticks > 0 ? br.packetsForwarded.value() /
                          (static_cast<double>(n) * ticks)
                    : 0.0);
}

/** Remote transport counters (zero without a remote backend). */
void
remoteCounts(cosim::FullSystem &fs, Fields &f)
{
    noc::remote::RemoteNetwork *r = fs.remoteNetwork();
    f.add("remote.rpc_round_trips", r ? r->rpcRoundTrips.value() : 0.0);
    f.add("remote.elided_quanta", r ? r->elidedQuanta.value() : 0.0);
    f.add("remote.spec_hits", r ? r->specHits.value() : 0.0);
    f.add("remote.spec_rebases", r ? r->specRebases.value() : 0.0);
    f.add("remote.retries", r ? r->retries.value() : 0.0);
    f.add("remote.reconnects", r ? r->reconnects.value() : 0.0);
}

struct RepResult
{
    std::uint64_t seed = 0;
    Fields fields;
    std::vector<std::string> failed;
    std::string digest;
    std::string kernel;
    std::vector<Span> spans;
};

/**
 * Drive the co-simulation quantum by quantum with the same done-test
 * as FullSystem::run, recording one span per quantum. Consecutive
 * spans share their boundary timestamp, so the spans tile the loop.
 */
double
tracedRun(cosim::FullSystem &fs, Tick limit, const TimingEngine *timing,
          std::vector<Span> &spans)
{
    const Tick quantum = fs.options().quantum;
    cosim::QuantumBridge &br = fs.bridge();
    auto start = Clock::now();
    auto prev = start;
    Tick t = fs.simulation().curTick();
    while (t < limit) {
        t += quantum;
        double h0 = br.hostNs(), n0 = br.netNs();
        double c0 = timing ? timing->computeNs() : 0.0;
        double m0 = timing ? timing->commitNs() : 0.0;
        br.advanceCoupled(t);
        bool done = fs.allCoresDone() && fs.memory().quiescent() &&
                    br.idle();
        auto now = Clock::now();
        auto us = [](Clock::duration d) {
            return std::chrono::duration<double, std::micro>(d).count();
        };
        spans.push_back(
            {us(prev - start), us(now - prev), (br.hostNs() - h0) / 1e3,
             (br.netNs() - n0) / 1e3,
             timing ? (timing->computeNs() - c0) / 1e3 : 0.0,
             timing ? (timing->commitNs() - m0) / 1e3 : 0.0});
        prev = now;
        if (done)
            break;
    }
    return secondsSince(start);
}

RepResult
runRep(const Args &args, RepKind kind, std::uint64_t seed)
{
    RepResult res;
    std::uint64_t warns = warnCount();
    Config cfg = makeConfig(args, kind, seed);
    bool remote = args.workload->remote && kind != RepKind::TracedTwin;

    auto t0 = Clock::now();
    std::unique_ptr<InProcessServer> server;
    if (remote)
        server = std::make_unique<InProcessServer>("unix:" + args.socket);
    auto options = cosim::FullSystemOptions::fromConfig(cfg);
    auto fs = std::make_unique<cosim::FullSystem>(cfg, options);
    double setup_s = secondsSince(t0);

    noc::CycleNetwork *net = fs->cycleNetwork();
    res.kernel = net ? net->fabric().description()
                     : remote ? "remote" : "none (abstract network)";

    double run_s = 0.0;
    if (kind == RepKind::Plain) {
        auto t1 = Clock::now();
        fs->run(args.workload->tick_limit);
        run_s = secondsSince(t1);
    } else {
        std::unique_ptr<ParallelEngine> pool;
        SerialEngine serial;
        StepEngine *inner = &serial;
        if (args.workload->parallel) {
            pool = std::make_unique<ParallelEngine>(engine_workers);
            inner = pool.get();
        }
        TimingEngine timing(*inner);
        if (net)
            net->setEngine(&timing);
        run_s = tracedRun(*fs, args.workload->tick_limit,
                          net ? &timing : nullptr, res.spans);
        if (net)
            net->setEngine(nullptr);

        cosim::QuantumBridge &br = fs->bridge();
        double host_ms = br.hostNs() / 1e6, net_ms = br.netNs() / 1e6;
        double quanta = static_cast<double>(br.quantaRun());
        double compute_ms = timing.computeNs() / 1e6;
        double commit_ms = timing.commitNs() / 1e6;
        double cycles = net ? net->cyclesRun.value() : 0.0;
        double ticks = static_cast<double>(fs->simulation().curTick());
        double routers = static_cast<double>(fs->numCores());
        Fields &f = res.fields;
        f.add("cosim.host_ms", host_ms);
        f.add("cosim.net_ms", net_ms);
        f.add("cosim.self_ms", run_s * 1e3 - host_ms - net_ms);
        f.add("cosim.quanta", quanta);
        f.add("noc.kernel.compute_ms", compute_ms);
        f.add("noc.kernel.commit_ms", commit_ms);
        f.add("noc.kernel.phases", static_cast<double>(timing.phases()));
        f.add("noc.cycles_run", cycles);
        f.add("noc.active_cycle_frac", ticks > 0 ? cycles / ticks : 0.0);
        f.add("noc.kernel.ns_per_router_cycle",
              cycles > 0 ? (compute_ms + commit_ms) * 1e6 /
                               (cycles * routers)
                         : 0.0);
        f.add("noc.orch_ms", net ? net_ms - compute_ms - commit_ms : 0.0);

        // Attribution check: the quantum spans tile the loop, and every
        // layer's self time is non-negative (1 us per span of clock
        // granularity allowed).
        double span_us = 0.0;
        bool nonneg = true;
        for (const Span &s : res.spans) {
            span_us += s.dur_us;
            nonneg = nonneg && s.host_us + s.net_us <= s.dur_us + 1.0 &&
                     s.compute_us + s.commit_us <= s.net_us + 1.0;
        }
        if (!nonneg ||
            std::abs(span_us / 1e6 - run_s) > 1e-3 * run_s + 1e-4) {
            res.failed.push_back("trace_attribution");
        }
    }
    res.fields.add("setup_s", setup_s);
    res.fields.add("run_s", run_s);
    simulatedCounts(*fs, res.fields);
    remoteCounts(*fs, res.fields);

    std::vector<std::string> failed = checkRun(*fs, warns);
    res.failed.insert(res.failed.begin(), failed.begin(), failed.end());
    res.digest = statsDigest(*fs);
    fs.reset();
    server.reset();
    return res;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

constexpr bool optimised_build =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    true;
#else
    false;
#endif

void
printFingerprint(const Args &args, const std::string &kernel)
{
    std::printf("{\"type\":\"fingerprint\",\"workload\":");
    printJsonString(args.workload->name);
    std::printf(",\"build_type\":");
    printJsonString(PERFBENCH_BUILD_TYPE);
    std::printf(",\"optimised\":%s,\"compiler\":",
                optimised_build ? "true" : "false");
    printJsonString(PERFBENCH_COMPILER);
    std::printf(",\"rasim_simd\":");
    printJsonString(PERFBENCH_SIMD);
    std::printf(",\"kernel\":");
    printJsonString(kernel);
    std::printf(",\"cpu_model\":");
    printJsonString(cpuModel());
    std::printf(",\"nproc\":%u,\"engine_workers\":%d,"
                "\"caches\":\"cold: simulated caches start empty\"}\n",
                std::thread::hardware_concurrency(),
                args.workload->parallel ? engine_workers : 0);
}

void
printRep(int index, RepKind kind, const RepResult &r)
{
    std::printf("{\"type\":\"rep\",\"index\":%d,\"kind\":\"%s\","
                "\"seed\":%" PRIu64 ",\"digest\":\"%s\",\"kernel\":",
                index, kindName(kind), r.seed, r.digest.c_str());
    printJsonString(r.kernel);
    std::printf(",\"failed\":[");
    for (std::size_t i = 0; i < r.failed.size(); ++i) {
        std::printf("%s", i ? "," : "");
        printJsonString(r.failed[i]);
    }
    std::printf("],\"fields\":");
    r.fields.print();
    std::printf("}\n");
    std::fflush(stdout);
}

/** Spans of the last traced rep of each kind, written at exit. */
void
writeTrace(const Args &args, const std::map<RepKind, RepResult> &traced)
{
    FILE *out = std::fopen(args.trace_out.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                     args.trace_out.c_str());
        std::exit(1);
    }
    std::fprintf(out,
                 "{\"workload\":\"%s\""
                 ",\"span_fields\":[\"quantum\",\"start_us\",\"dur_us\","
                 "\"host_us\",\"net_us\",\"compute_us\",\"commit_us\"],"
                 "\"note\":\"per quantum: self = dur - host - net; "
                 "orchestrator self = net - compute - commit\",\"reps\":[",
                 args.workload->name);
    const char *sep = "";
    for (const auto &[kind, rep] : traced) {
        std::fprintf(out,
                     "%s{\"kind\":\"%s\",\"seed\":%" PRIu64 ",\"spans\":[",
                     sep, kindName(kind), rep.seed);
        sep = ",";
        const auto &spans = rep.spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(out, "%s[%zu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f]",
                         i ? "," : "", i, s.start_us, s.dur_us, s.host_us,
                         s.net_us, s.compute_us, s.commit_us);
        }
        std::fprintf(out, "]}");
    }
    std::fprintf(out, "]}\n");
    if (std::fclose(out) != 0) {
        std::fprintf(stderr, "perfbench: short write to '%s'\n",
                     args.trace_out.c_str());
        std::exit(1);
    }
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--workload NAME --seeds N[,N...] --seconds S --trace 0|1 "
                 "--socket PATH --trace-out PATH [--min-rounds K]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            for (const Workload &w : workloads())
                if (v == w.name)
                    a.workload = &w;
            if (!a.workload)
                usage(("unknown workload '" + v + "'").c_str());
        } else if (k == "--seeds") {
            for (std::size_t b = 0; b < v.size();) {
                std::size_t e = v.find(',', b);
                e = e == std::string::npos ? v.size() : e;
                a.seeds.push_back(std::stoull(v.substr(b, e - b)));
                b = e + 1;
            }
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--min-rounds") {
            a.min_rounds = std::stoi(v);
        } else if (k == "--socket") {
            a.socket = v;
        } else if (k == "--trace-out") {
            a.trace_out = v;
        } else {
            usage(("unknown argument '" + k + "'").c_str());
        }
    }
    if (!a.workload || a.seeds.empty() || a.socket.empty() ||
        a.trace_out.empty())
        usage("missing argument");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (!optimised_build) {
        std::fprintf(stderr, "perfbench: refusing to measure an "
                             "unoptimised build (" PERFBENCH_BUILD_TYPE
                             ")\n");
        return 3;
    }

    std::vector<RepKind> cycle = {RepKind::Plain};
    if (args.trace) {
        cycle.push_back(RepKind::Traced);
        if (args.workload->remote)
            cycle.push_back(RepKind::TracedTwin);
    }

    std::map<RepKind, RepResult> last_traced;
    Calibrator calibrator(args.workload->parallel ? engine_workers + 1 : 1);
    auto start = Clock::now();
    double calib_before = calibrator.run();
    int index = 0;
    for (int round = 0; round < args.min_rounds ||
                         secondsSince(start) < args.seconds;
         ++round) {
        std::uint64_t seed = args.seeds[round % args.seeds.size()];
        for (RepKind kind : cycle) {
            RepResult r;
            try {
                // fatal()/panic() inside the simulator fail this rep,
                // not the whole run.
                logging::ThrowOnError guard;
                r = runRep(args, kind, seed);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: %s seed %" PRIu64
                                     " rep %d: %s\n",
                             args.workload->name, seed, index, e.what());
                r.failed.push_back("exception");
            }
            r.seed = seed;
            double calib_after = calibrator.run();
            r.fields.add("calib_s", (calib_before + calib_after) / 2);
            calib_before = calib_after;
            if (index == 0)
                printFingerprint(args, r.kernel);
            printRep(index++, kind, r);
            if (kind != RepKind::Plain)
                last_traced[kind] = std::move(r);
        }
    }
    if (args.trace)
        writeTrace(args, last_traced);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"type\":\"end\",\"reps\":%d,\"peak_rss_mb\":%.6f}\n",
                index, static_cast<double>(ru.ru_maxrss) / 1024.0);
    return 0;
}
