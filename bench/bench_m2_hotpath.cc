/**
 * @file
 * M2: hot-path memory-model benchmark. Two measurements, one run:
 *
 * 1. Micro lanes: the per-packet data flow of the coupled hot path —
 *    allocate a packet, register it in an in-flight table, queue a
 *    completion callback, then deliver (look up, time-stamp, erase,
 *    free) — executed twice over the same workload. The *legacy* lane
 *    uses the pre-refactor idioms (std::make_shared packets, std::map
 *    in-flight table, std::function callbacks with a realistic ~48-byte
 *    capture); the *pooled* lane uses the current substrate (slab pool
 *    handles, FlatMap, InlineCallable). Both lanes compute the same
 *    checksum, so the comparison is like-for-like.
 *
 * 2. System lane: a real CosimCycle FullSystem advanced quantum by
 *    quantum past warm-up, reporting end-to-end packets/sec and the
 *    honest steady-state heap allocations per quantum. It isolates
 *    the host side (cores, L1s, directories, event queue, bridge),
 *    because the soa kernel itself allocates nothing; the binary exits
 *    1 if the lane exceeds 1 allocation per quantum after warm-up.
 *
 * 3. Kernel sweep: 8x8, 16x16 and 16x32 CycleNetworks on each SIMD
 *    level of the soa kernel (soa-scalar, soa-avx2) at offered loads
 *    from near idle (0.0002 pkt/node/cycle) to 0.03, reporting ns per
 *    router-cycle and heap allocations per quantum at each point, plus
 *    two lanes at the best SIMD level on a 2-worker ParallelEngine:
 *    soa-pool2 pools every phase, soa-rule leaves the choice to the
 *    pool's work rule. Each point also reports the active nodes per
 *    phase and the share of phases the rule pooled. The binary exits
 *    1 if a lane's deliveries differ from soa-scalar's, a lane
 *    allocates after warm-up, or the rule lane is slower than the
 *    better of soa-pool2 and the serial lane beyond noise.
 *
 * 4. Barrier cost: ns per empty phase on that 2-worker pool, i.e. the
 *    handoff a pooled cycle pays twice whatever its work.
 *
 * A counting global allocator (defined in this translation unit, so it
 * only governs this binary) attributes heap traffic to each lane.
 * Results go to stdout and to BENCH_hotpath.json in the working
 * directory. --quick shrinks the workload for CI.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "cosim/full_system.hh"
#include "noc/cycle_network.hh"
#include "noc/packet.hh"
#include "sim/callable.hh"
#include "sim/cpuid.hh"
#include "sim/flat_map.hh"
#include "sim/parallel_engine.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"

// ---------------------------------------------------------------------
// Counting global allocator (this binary only).
// ---------------------------------------------------------------------

namespace
{
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(al),
                                     (n + static_cast<std::size_t>(al) -
                                      1) &
                                         ~(static_cast<std::size_t>(al) -
                                           1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace rasim;

// ---------------------------------------------------------------------
// Micro lanes.
// ---------------------------------------------------------------------

constexpr int packets_per_quantum = 64;

/** Pre-refactor idioms: shared_ptr + std::map + std::function. */
struct LegacyLane
{
    std::map<std::uint64_t, std::shared_ptr<noc::Packet>> inflight;
    std::vector<std::function<void()>> pending;
    std::uint64_t checksum = 0;

    void
    quantum(std::uint64_t base)
    {
        for (int i = 0; i < packets_per_quantum; ++i) {
            auto pkt = std::make_shared<noc::Packet>();
            pkt->id = base + static_cast<std::uint64_t>(i);
            pkt->src = static_cast<NodeId>(i & 63);
            pkt->dst = static_cast<NodeId>((i * 7) & 63);
            pkt->inject_tick = base;
            inflight[pkt->id] = pkt;
            // ~48-byte capture: what the coherence completion lambdas
            // actually carried, past std::function's inline buffer.
            std::uint64_t a = base, b = static_cast<std::uint64_t>(i);
            std::uint64_t c = base ^ b, id = pkt->id;
            pending.emplace_back([this, id, a, b, c] {
                auto it = inflight.find(id);
                it->second->deliver_tick = a + b + 4;
                checksum += it->second->deliver_tick + c;
                inflight.erase(it);
            });
        }
        for (auto &fn : pending)
            fn();
        pending.clear();
    }
};

/** Current substrate: slab pool + FlatMap + InlineCallable. */
struct PooledLane
{
    Pool<noc::Packet> pool{"bench.packet"};
    FlatMap<std::uint64_t, PoolPtr<noc::Packet>> inflight;
    std::vector<InlineCallable> pending;
    std::uint64_t checksum = 0;

    void
    quantum(std::uint64_t base)
    {
        for (int i = 0; i < packets_per_quantum; ++i) {
            PoolPtr<noc::Packet> pkt = pool.allocate();
            pkt->id = base + static_cast<std::uint64_t>(i);
            pkt->src = static_cast<NodeId>(i & 63);
            pkt->dst = static_cast<NodeId>((i * 7) & 63);
            pkt->inject_tick = base;
            std::uint64_t a = base, b = static_cast<std::uint64_t>(i);
            std::uint64_t c = base ^ b, id = pkt->id;
            inflight.insertOrAssign(id, std::move(pkt));
            pending.emplace_back([this, id, a, b, c] {
                PoolPtr<noc::Packet> *p = inflight.find(id);
                (*p)->deliver_tick = a + b + 4;
                checksum += (*p)->deliver_tick + c;
                inflight.erase(id);
            });
        }
        for (auto &fn : pending)
            fn();
        pending.clear();
    }
};

struct LaneResult
{
    double packets_per_sec = 0.0;
    double allocs_per_quantum = 0.0;
    std::uint64_t checksum = 0;
};

template <typename Lane>
LaneResult
runLane(std::uint64_t warm_quanta, std::uint64_t quanta)
{
    Lane lane;
    for (std::uint64_t q = 0; q < warm_quanta; ++q)
        lane.quantum(q * 1000);

    std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    double secs = benchutil::timeIt([&] {
        for (std::uint64_t q = 0; q < quanta; ++q)
            lane.quantum((warm_quanta + q) * 1000);
    });
    std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);

    LaneResult r;
    r.packets_per_sec =
        static_cast<double>(quanta * packets_per_quantum) / secs;
    r.allocs_per_quantum =
        static_cast<double>(allocs1 - allocs0) /
        static_cast<double>(quanta);
    r.checksum = lane.checksum;
    return r;
}

// ---------------------------------------------------------------------
// System lane.
// ---------------------------------------------------------------------

struct SystemResult
{
    double packets_per_sec = 0.0;
    double allocs_per_quantum = 0.0;
    std::uint64_t quanta = 0;
};

/** Host-side allocation budget of the system lane, per quantum. */
constexpr double system_alloc_budget = 1.0;

SystemResult
runSystem(Tick warm_ticks, Tick run_ticks)
{
    cosim::FullSystemOptions o;
    o.mode = cosim::Mode::CosimCycle;
    o.app = "lu";
    o.ops_per_core = 10000000; // never drains inside the window
    o.quantum = 64;
    o.noc.columns = 4;
    o.noc.rows = 4;
    o.mem.l1_sets = 16;
    cosim::FullSystem sys(Config(), o);

    sys.run(warm_ticks);
    std::uint64_t delivered0 = sys.packetsDelivered();
    std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    double secs =
        benchutil::timeIt([&] { sys.run(warm_ticks + run_ticks); });
    std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);

    SystemResult r;
    r.quanta = run_ticks / o.quantum;
    r.packets_per_sec =
        static_cast<double>(sys.packetsDelivered() - delivered0) / secs;
    r.allocs_per_quantum = static_cast<double>(allocs1 - allocs0) /
                           static_cast<double>(r.quanta);
    return r;
}

// ---------------------------------------------------------------------
// Kernel lanes: the same detailed CycleNetwork run on each SIMD level
// of the soa kernel — soa-scalar and, when the build and host allow
// it, soa-avx2 — and on a 2-worker pool twice: forced to pool every
// phase (soa-pool2) and under ParallelEngine's work rule (soa-rule),
// which runs a phase inline when the previous phase of its kind had
// too few active nodes. All lanes see identical seeded traffic and
// must deliver the identical packet stream (checksummed), so the
// ratios isolate the SIMD scan and the engine. The lanes are swept
// over offered load and mesh size: the rule must pick the faster of
// serial and pooled at every point.
// ---------------------------------------------------------------------

constexpr Tick kernel_quantum = 1000;

struct KernelLaneResult
{
    double router_cycles_per_sec = 0.0; ///< routers x cycles / wall sec
    double ns_per_router_cycle = 0.0;
    double allocs_per_quantum = 0.0;
    std::uint64_t checksum = 0;
    /** Over the repeats: the slowest run's ns per router-cycle. */
    double slowest_ns = 0.0;

    /** The repeats' spread: slowest over fastest, minus one. */
    double
    spread() const
    {
        return slowest_ns / ns_per_router_cycle - 1.0;
    }
};

/** Workers of the pooled lanes' engines. */
constexpr int pool_lane_workers = 2;

/** Timed repeats of every lane at a point; each lane reports its
 *  fastest, the least disturbed by other tenants of the host. */
constexpr int kernel_reps = 3;

/** A serial engine that records the work hints the kernel gives it:
 *  the active nodes per phase at a point. */
class HintRecorder : public SerialEngine
{
  public:
    void
    hintActive(std::size_t nodes) override
    {
        ++phases;
        active += nodes;
    }

    std::uint64_t phases = 0, active = 0;
};

/** One lane; @p engine null runs the network's serial engine. */
KernelLaneResult
runKernelLane(int columns, int rows, const char *simd,
              int packets_per_quantum, std::uint64_t warm_quanta,
              std::uint64_t quanta, StepEngine *engine = nullptr)
{
    constexpr Tick quantum = kernel_quantum;

    Simulation sim;
    noc::NocParams p;
    p.columns = columns;
    p.rows = rows;
    p.simd = simd;
    noc::CycleNetwork net(sim, "bench", p);
    if (engine)
        net.setEngine(engine);

    KernelLaneResult r;
    net.setDeliveryHandler([&r](const noc::PacketPtr &pkt) {
        r.checksum += pkt->deliver_tick ^ pkt->id;
    });

    Rng rng(0xbe7c, 9);
    std::uint64_t next_id = 1;
    std::size_t nodes = net.numNodes();
    auto step = [&](std::uint64_t q) {
        Tick base = q * quantum;
        for (int i = 0; i < packets_per_quantum; ++i) {
            net.inject(noc::makePacket(
                static_cast<PacketId>(next_id++),
                static_cast<NodeId>(rng.range(nodes)),
                static_cast<NodeId>(rng.range(nodes)),
                static_cast<noc::MsgClass>(rng.range(3)),
                rng.bernoulli(0.5) ? 8 : 64,
                base + static_cast<Tick>(rng.range(quantum))));
        }
        net.advanceTo(base + quantum);
    };

    for (std::uint64_t q = 0; q < warm_quanta; ++q)
        step(q);

    std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    double secs = benchutil::timeIt([&] {
        for (std::uint64_t q = 0; q < quanta; ++q)
            step(warm_quanta + q);
    });
    std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);

    double router_cycles =
        static_cast<double>(quanta * quantum) *
        static_cast<double>(nodes);
    r.router_cycles_per_sec = router_cycles / secs;
    r.ns_per_router_cycle = secs * 1e9 / router_cycles;
    r.allocs_per_quantum = static_cast<double>(allocs1 - allocs0) /
                           static_cast<double>(quanta);
    return r;
}

/** Fold one more run of a lane into @p best: the fastest run's
 *  speed, the slowest run's ns, the most allocations, and a checksum
 *  that stops matching if two runs disagree. */
void
keepFastest(KernelLaneResult &best, const KernelLaneResult &run,
            bool first)
{
    if (first) {
        best = run;
        best.slowest_ns = run.ns_per_router_cycle;
        return;
    }
    if (run.ns_per_router_cycle < best.ns_per_router_cycle) {
        best.router_cycles_per_sec = run.router_cycles_per_sec;
        best.ns_per_router_cycle = run.ns_per_router_cycle;
    }
    best.slowest_ns = std::max(best.slowest_ns, run.ns_per_router_cycle);
    best.allocs_per_quantum =
        std::max(best.allocs_per_quantum, run.allocs_per_quantum);
    if (run.checksum != best.checksum)
        best.checksum = ~run.checksum;
}

/** One (mesh, offered load) point of the kernel sweep. */
struct KernelPoint
{
    int columns = 16, rows = 16;
    double offered_load = 0.0; ///< packets per node per cycle
    int packets_per_quantum = 0;
    std::uint64_t quanta = 0;
    double active_per_phase = 0.0; ///< mean work hint
    double rule_pooled_frac = 0.0; ///< phases the rule lane pooled
    KernelLaneResult soa_scalar, soa_avx2, soa_pool, soa_rule;
    bool have_avx2 = false;

    int nodes() const { return columns * rows; }
    /** The serial lane at the pooled lanes' SIMD level. */
    const KernelLaneResult &
    serial() const
    {
        return have_avx2 ? soa_avx2 : soa_scalar;
    }
};

/** Run every lane at one point; false on a checksum mismatch. */
bool
runKernelPoint(KernelPoint &pt, std::uint64_t warm_quanta)
{
    pt.packets_per_quantum = static_cast<int>(
        pt.offered_load * pt.nodes() * kernel_quantum + 0.5);
    // One untimed pass first: the packet pool is shared by the whole
    // process, so whichever lane first meets this load's in-flight
    // high-water mark would pay for growing it. Nothing of this pass is
    // timed; every lane then measures against a pool already grown. It
    // records the kernel's work hints.
    HintRecorder hints;
    (void)runKernelLane(pt.columns, pt.rows, "scalar",
                        pt.packets_per_quantum, warm_quanta, pt.quanta,
                        &hints);
    pt.active_per_phase = static_cast<double>(hints.active) /
                          static_cast<double>(std::max<std::uint64_t>(
                              hints.phases, 1));
    pt.have_avx2 = cpuid::simdCompiledIn() && cpuid::hostHasAvx2();
    // The pools outlive the repeats, so their threads start in the
    // first repeat's warm-up, not inside a timed window.
    ParallelEngine forced(pool_lane_workers, 0);
    ParallelEngine rule(pool_lane_workers);
    struct Lane
    {
        const char *simd;
        StepEngine *engine;
        KernelLaneResult *result;
    };
    std::vector<Lane> lanes = {{"scalar", nullptr, &pt.soa_scalar}};
    if (pt.have_avx2)
        lanes.push_back({"avx2", nullptr, &pt.soa_avx2});
    lanes.push_back({"auto", &forced, &pt.soa_pool});
    lanes.push_back({"auto", &rule, &pt.soa_rule});
    // Each repeat starts one lane later, so no lane always runs first
    // or right after a pool's workers went idle.
    for (int rep = 0; rep < kernel_reps; ++rep) {
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            const Lane &l = lanes[(k + rep) % lanes.size()];
            keepFastest(*l.result,
                        runKernelLane(pt.columns, pt.rows, l.simd,
                                      pt.packets_per_quantum, warm_quanta,
                                      pt.quanta, l.engine),
                        rep == 0);
        }
    }
    pt.rule_pooled_frac = static_cast<double>(rule.pooledPhases()) /
                          static_cast<double>(rule.phasesRun());
    const std::uint64_t want = pt.soa_scalar.checksum;
    if ((pt.have_avx2 && pt.soa_avx2.checksum != want) ||
        pt.soa_pool.checksum != want || pt.soa_rule.checksum != want) {
        std::fprintf(stderr,
                     "kernel lane checksum mismatch on %dx%d at %.4f "
                     "pkt/node/cycle\n",
                     pt.columns, pt.rows, pt.offered_load);
        return false;
    }
    return true;
}

void
writeLaneJson(FILE *f, const char *name, const KernelLaneResult &k,
              bool last = false)
{
    std::fprintf(f,
                 "      \"%s\": {\"router_cycles_per_sec\": %.1f, "
                 "\"ns_per_router_cycle\": %.4f, "
                 "\"slowest_ns_per_router_cycle\": %.4f, "
                 "\"allocs_per_quantum\": %.3f}%s\n",
                 name, k.router_cycles_per_sec, k.ns_per_router_cycle,
                 k.slowest_ns, k.allocs_per_quantum, last ? "" : ",");
}

/**
 * Least noise allowance of the rule gate. The rule lane may be slower
 * than the better of soa-pool2 and the serial lane at its SIMD level
 * by this much, or by the larger spread of the two lanes' repeats if
 * the host was noisier than that, before the binary fails.
 */
constexpr double rule_noise = 0.15;

/** Mean ns of an empty forRange phase on a @p workers pool. */
double
emptyPhaseNs(int workers, int phases)
{
    ParallelEngine pool(workers);
    std::function<void(std::size_t, std::size_t)> nothing =
        [](std::size_t, std::size_t) {};
    for (int k = 0; k < phases / 10; ++k)
        pool.forRange(workers + 1, nothing);
    double secs = benchutil::timeIt([&] {
        for (int k = 0; k < phases; ++k)
            pool.forRange(workers + 1, nothing);
    });
    return secs * 1e9 / phases;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const std::uint64_t warm_quanta = quick ? 200 : 1000;
    const std::uint64_t quanta = quick ? 5000 : 50000;
    const Tick sys_warm = quick ? 10000 : 40000;
    const Tick sys_run = quick ? 20000 : 160000;

    benchutil::printHeader("M2: hot-path memory model");

    LaneResult legacy = runLane<LegacyLane>(warm_quanta, quanta);
    LaneResult pooled = runLane<PooledLane>(warm_quanta, quanta);
    if (legacy.checksum != pooled.checksum) {
        std::fprintf(stderr,
                     "lane checksum mismatch: legacy %llu pooled %llu\n",
                     static_cast<unsigned long long>(legacy.checksum),
                     static_cast<unsigned long long>(pooled.checksum));
        return 1;
    }
    double speedup = pooled.packets_per_sec / legacy.packets_per_sec;

    benchutil::printRow({"lane", "packets/s", "allocs/quantum"});
    benchutil::printRow({"legacy", benchutil::fmt(legacy.packets_per_sec, 0),
                         benchutil::fmt(legacy.allocs_per_quantum, 2)});
    benchutil::printRow({"pooled", benchutil::fmt(pooled.packets_per_sec, 0),
                         benchutil::fmt(pooled.allocs_per_quantum, 2)});
    std::printf("micro speedup: %.2fx (target >= 1.3x)\n", speedup);

    SystemResult sys = runSystem(sys_warm, sys_run);
    std::printf("system (cosim 4x4, quantum 64): %.0f packets/s, "
                "%.2f allocs/quantum over %llu quanta\n",
                sys.packets_per_sec, sys.allocs_per_quantum,
                static_cast<unsigned long long>(sys.quanta));

    // Kernel sweep: 8x8, 16x16 and 16x32 CycleNetworks, identical
    // seeded traffic per point. Busier points and bigger meshes run
    // fewer quanta so each costs about the same wall time; each warms
    // up for half its measured quanta.
    const double loads[] = {0.0002, 0.002, 0.01, 0.03};
    const std::uint64_t quanta_16x16[] = {quick ? 40u : 300u,
                                          quick ? 10u : 60u,
                                          quick ? 4u : 20u,
                                          quick ? 2u : 10u};
    std::vector<KernelPoint> sweep;
    for (auto [columns, rows] : {std::pair{8, 8}, std::pair{16, 16},
                                 std::pair{16, 32}}) {
        for (std::size_t l = 0; l < std::size(loads); ++l) {
            KernelPoint pt;
            pt.columns = columns;
            pt.rows = rows;
            pt.offered_load = loads[l];
            pt.quanta = std::max<std::uint64_t>(
                2, quanta_16x16[l] * 256 /
                       static_cast<std::uint64_t>(columns * rows));
            if (!runKernelPoint(pt, pt.quanta / 2))
                return 1;
            sweep.push_back(pt);
        }
    }

    benchutil::printRow({"mesh", "pkt/node/cyc", "kernel",
                         "Mrouter-cyc/s", "ns/router-cyc",
                         "allocs/quantum"});
    auto kernelRow = [](const KernelPoint &pt, const char *name,
                        const KernelLaneResult &k) {
        benchutil::printRow(
            {std::to_string(pt.columns) + "x" + std::to_string(pt.rows),
             benchutil::fmt(pt.offered_load, 4), name,
             benchutil::fmt(k.router_cycles_per_sec / 1e6, 1),
             benchutil::fmt(k.ns_per_router_cycle, 3),
             benchutil::fmt(k.allocs_per_quantum, 2)});
    };
    for (const KernelPoint &pt : sweep) {
        kernelRow(pt, "soa-scalar", pt.soa_scalar);
        if (pt.have_avx2)
            kernelRow(pt, "soa-avx2", pt.soa_avx2);
        kernelRow(pt, "soa-pool2", pt.soa_pool);
        kernelRow(pt, "soa-rule", pt.soa_rule);
    }
    if (!sweep[0].have_avx2)
        std::printf("soa-avx2: n/a (build or host lacks AVX2)\n");

    // The work rule at each point: the active nodes per phase it reads,
    // the share of phases it pooled, and its lane against the better
    // of the serial lane (at the pools' SIMD level) and the forced pool.
    std::printf("work rule: a phase pools from %zu active nodes "
                "(%zu per slot, %d slots)\n",
                ParallelEngine::default_min_active_per_slot *
                    (pool_lane_workers + 1),
                ParallelEngine::default_min_active_per_slot,
                pool_lane_workers + 1);
    benchutil::printRow({"mesh", "pkt/node/cyc", "active/phase",
                         "pooled", "serial ns", "pool2 ns", "rule ns",
                         "rule/best", "noise"});
    int rule_misses = 0;
    for (const KernelPoint &pt : sweep) {
        const KernelLaneResult &best =
            pt.serial().ns_per_router_cycle <=
                    pt.soa_pool.ns_per_router_cycle
                ? pt.serial()
                : pt.soa_pool;
        double ratio =
            pt.soa_rule.ns_per_router_cycle / best.ns_per_router_cycle;
        double noise = std::max(
            {rule_noise, best.spread(), pt.soa_rule.spread()});
        bool miss = ratio > 1.0 + noise;
        rule_misses += miss;
        benchutil::printRow(
            {std::to_string(pt.columns) + "x" + std::to_string(pt.rows),
             benchutil::fmt(pt.offered_load, 4),
             benchutil::fmt(pt.active_per_phase, 1),
             benchutil::fmt(100.0 * pt.rule_pooled_frac, 0) + "%",
             benchutil::fmt(pt.serial().ns_per_router_cycle, 2),
             benchutil::fmt(pt.soa_pool.ns_per_router_cycle, 2),
             benchutil::fmt(pt.soa_rule.ns_per_router_cycle, 2),
             benchutil::fmt(ratio, 2),
             benchutil::fmt(noise, 2) + (miss ? " SLOW" : "")});
    }

    const int empty_phases = quick ? 20000 : 200000;
    double empty_ns = emptyPhaseNs(pool_lane_workers, empty_phases);
    std::printf("empty phase on a %d-worker pool: %.0f ns "
                "(%d phases, %u hardware threads)\n",
                pool_lane_workers, empty_ns, empty_phases,
                std::thread::hardware_concurrency());

    const char *path = "BENCH_hotpath.json";
    if (FILE *f = std::fopen(path, "w")) {
        std::fprintf(
            f,
            "{\n"
            "  \"quick\": %s,\n"
            "  \"micro\": {\n"
            "    \"quanta\": %llu,\n"
            "    \"packets_per_quantum\": %d,\n"
            "    \"legacy\": {\"packets_per_sec\": %.1f, "
            "\"allocs_per_quantum\": %.3f},\n"
            "    \"pooled\": {\"packets_per_sec\": %.1f, "
            "\"allocs_per_quantum\": %.3f},\n"
            "    \"speedup\": %.3f\n"
            "  },\n"
            "  \"system\": {\n"
            "    \"mode\": \"cosim\",\n"
            "    \"kernel\": \"soa\",\n"
            "    \"quanta\": %llu,\n"
            "    \"packets_per_sec\": %.1f,\n"
            "    \"allocs_per_quantum\": %.3f,\n"
            "    \"allocs_per_quantum_budget\": %.1f\n"
            "  },\n"
            "  \"empty_phase_ns\": {\"workers\": %d, \"ns\": %.1f},\n"
            "  \"kernel_sweep\": {\n"
            "    \"quantum_cycles\": %llu,\n"
            "    \"pool_workers\": %d,\n"
            "    \"rule_min_active_per_slot\": %zu,\n"
            "    \"rule_noise_floor\": %.2f,\n"
            "    \"points\": [\n",
            quick ? "true" : "false",
            static_cast<unsigned long long>(quanta), packets_per_quantum,
            legacy.packets_per_sec, legacy.allocs_per_quantum,
            pooled.packets_per_sec, pooled.allocs_per_quantum, speedup,
            static_cast<unsigned long long>(sys.quanta),
            sys.packets_per_sec, sys.allocs_per_quantum,
            system_alloc_budget, pool_lane_workers, empty_ns,
            static_cast<unsigned long long>(kernel_quantum),
            pool_lane_workers, ParallelEngine::default_min_active_per_slot,
            rule_noise);
        for (std::size_t k = 0; k < sweep.size(); ++k) {
            const KernelPoint &pt = sweep[k];
            std::fprintf(f,
                         "     {\n"
                         "      \"mesh\": \"%dx%d\",\n"
                         "      \"offered_load\": %.4f,\n"
                         "      \"packets_per_quantum\": %d,\n"
                         "      \"quanta\": %llu,\n"
                         "      \"active_per_phase\": %.2f,\n"
                         "      \"rule_pooled_frac\": %.4f,\n",
                         pt.columns, pt.rows, pt.offered_load,
                         pt.packets_per_quantum,
                         static_cast<unsigned long long>(pt.quanta),
                         pt.active_per_phase, pt.rule_pooled_frac);
            writeLaneJson(f, "soa_scalar", pt.soa_scalar);
            if (pt.have_avx2)
                writeLaneJson(f, "soa_avx2", pt.soa_avx2);
            else
                std::fprintf(f, "      \"soa_avx2\": null,\n");
            writeLaneJson(f, "soa_pool2", pt.soa_pool);
            writeLaneJson(f, "soa_rule", pt.soa_rule, true);
            std::fprintf(f, "     }%s\n", k + 1 < sweep.size() ? "," : "");
        }
        std::fprintf(f, "    ]\n"
                        "  }\n"
                        "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path);
    } else {
        std::perror("BENCH_hotpath.json");
        return 1;
    }

    // The host side must stay (nearly) allocation-free once warm.
    int status = 0;
    if (sys.allocs_per_quantum > system_alloc_budget) {
        std::fprintf(stderr,
                     "system lane made %.2f allocs/quantum "
                     "(budget %.1f)\n",
                     sys.allocs_per_quantum, system_alloc_budget);
        status = 1;
    }
    // The soa kernel must run allocation-free once warm, at every load.
    for (const KernelPoint &pt : sweep) {
        if (pt.soa_scalar.allocs_per_quantum > 0.0 ||
            (pt.have_avx2 && pt.soa_avx2.allocs_per_quantum > 0.0) ||
            pt.soa_pool.allocs_per_quantum > 0.0 ||
            pt.soa_rule.allocs_per_quantum > 0.0) {
            std::fprintf(stderr,
                         "soa kernel allocated on the heap on %dx%d at "
                         "%.4f pkt/node/cycle\n",
                         pt.columns, pt.rows, pt.offered_load);
            status = 1;
        }
    }
    // The work rule must never pick the slower engine beyond noise.
    if (rule_misses > 0) {
        std::fprintf(stderr,
                     "work rule lane slower than the better of serial "
                     "and soa-pool2 beyond noise at %d point(s)\n",
                     rule_misses);
        status = 1;
    }
    return status;
}
