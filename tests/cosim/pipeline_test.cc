/**
 * @file
 * The pipelined quantum (host and backend side by side inside a
 * quantum, on the bridge's backend thread) against the host-then-
 * network order it replaces.
 *
 * PipelineDifferential drives the same seeded, closed-loop traffic
 * through two bridges: one over a cycle-level network, which
 * pipelines, and one over a pass-through decorator around an
 * identical network, which NetworkModel's defaults keep sequential.
 * At every boundary the delivery streams, the stats trees, the latency
 * tables and the checkpoint bytes must be identical, for the serial
 * engine and a 2-worker pool, both detailed networks and quanta on
 * both sides of the pipelining threshold; a pipelined run resumed from
 * a mid-run image must match too. Conservative coupling keeps the
 * sequential order on both bridges, and its cases check that the two
 * rigs agree there as well.
 *
 * PipelineFailure covers the error paths: a fabric that panics at a
 * fixed cycle trips, degrades and recovers exactly as the sequential
 * reference does, and a host event that throws mid-quantum leaves
 * FullSystem::run without hanging or leaking the backend thread, in
 * pipelined and overlapped quanta alike.
 *
 * PipelineRegression pins one small full-system run per quantum plan
 * (sequential, pipelined, overlapped, conservative, tuned) to values
 * recorded from an earlier build, so a change that moves both sides
 * of a differential alike still shows.
 */

#include <gtest/gtest.h>

#include "common/thread_count.hh"

#include <sched.h>

#include <algorithm>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cosim/bridge.hh"
#include "cosim/full_system.hh"
#include "noc/cycle_network.hh"
#include "noc/detailed_network.hh"
#include "sim/logging.hh"
#include "sim/parallel_engine.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/output.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;
using Coupling = QuantumBridge::Coupling;

/** Forwards everything; NetworkModel's defaults make it sequential. */
class Passthrough : public noc::NetworkModel
{
  public:
    explicit Passthrough(noc::NetworkModel &inner) : inner_(inner) {}

    void inject(const noc::PacketPtr &pkt) override { inner_.inject(pkt); }
    void advanceTo(Tick t) override { inner_.advanceTo(t); }
    void
    setDeliveryHandler(DeliveryHandler handler) override
    {
        inner_.setDeliveryHandler(std::move(handler));
    }
    void setEngine(StepEngine *engine) override { inner_.setEngine(engine); }
    Tick curTime() const override { return inner_.curTime(); }
    bool idle() const override { return inner_.idle(); }
    std::size_t numNodes() const override { return inner_.numNodes(); }
    std::optional<Accounting>
    accounting() const override
    {
        return inner_.accounting();
    }

  private:
    noc::NetworkModel &inner_;
};

/**
 * A soa fabric that counts its stat flushes and, if asked, panics the
 * first time it computes cycle panic_cycle: a backend failure at a
 * point fixed in simulated time.
 */
class ProbeFabric : public noc::kernel::CycleFabric
{
  public:
    static constexpr Cycle panic_cycle = 300;

    ProbeFabric(std::unique_ptr<CycleFabric> inner, bool panics)
        : inner_(std::move(inner)), panics_(panics)
    {
    }

    std::string description() const override { return "probed soa"; }
    void
    enqueue(std::size_t node, const noc::PacketPtr &pkt,
            Cycle now) override
    {
        inner_->enqueue(node, pkt, now);
    }
    void
    compute(StepEngine &engine, Cycle now) override
    {
        if (panics_ && now == panic_cycle) {
            panics_ = false;
            panic("fabric failed at cycle ", now);
        }
        inner_->compute(engine, now);
    }
    void
    commit(StepEngine &engine, Cycle now) override
    {
        inner_->commit(engine, now);
    }
    std::vector<noc::PacketPtr> &
    completed(std::size_t node) override
    {
        return inner_->completed(node);
    }
    const std::vector<int> &
    completedNodes() const override
    {
        return inner_->completedNodes();
    }
    void
    flushStats() override
    {
        ++flushes_;
        inner_->flushStats();
    }
    noc::kernel::RouterActivity
    routerActivity(std::size_t node) const override
    {
        return inner_->routerActivity(node);
    }
    void save(ArchiveWriter &aw) const override { inner_->save(aw); }
    void restore(ArchiveReader &ar) override { inner_->restore(ar); }

    /** flushStats() calls so far: the soa kernel's node-range cut
     *  moves in them and nowhere else. */
    std::uint64_t flushes() const { return flushes_; }

  private:
    std::unique_ptr<CycleFabric> inner_;
    bool panics_;
    std::uint64_t flushes_ = 0;
};

std::unique_ptr<noc::kernel::CycleFabric>
makeCountingFabric(stats::Group *parent, const noc::NocParams &params,
                   const noc::Topology &topo,
                   const noc::RoutingAlgorithm &routing)
{
    return std::make_unique<ProbeFabric>(
        noc::kernel::makeCycleFabric(parent, params, topo, routing),
        false);
}

std::unique_ptr<noc::kernel::CycleFabric>
makePanickingFabric(stats::Group *parent, const noc::NocParams &params,
                    const noc::Topology &topo,
                    const noc::RoutingAlgorithm &routing)
{
    return std::make_unique<ProbeFabric>(
        noc::kernel::makeCycleFabric(parent, params, topo, routing), true);
}

struct Case
{
    Coupling coupling = Coupling::Reciprocal;
    int engine_workers = 0;
    noc::RouterKind router = noc::RouterKind::Vc;
    Tick quantum = 256;
};

/** One delivery as a stream entry. */
struct Seen
{
    PacketId id;
    Tick deliver_tick;
    std::uint32_t hops;

    bool
    operator==(const Seen &o) const
    {
        return id == o.id && deliver_tick == o.deliver_tick &&
               hops == o.hops;
    }
};

using StatRows = std::vector<std::tuple<std::string, std::string, double>>;

void
snapshotStats(const stats::Group &g, StatRows &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.emplace_back(g.path() + "." + s->name(), sub, v);
    for (const stats::Group *c : g.children())
        snapshotStats(*c, out);
}

/** 64-bit mix of the traffic's coordinates (splitmix64 finaliser). */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * A bridge, its backend (sequential behind a Passthrough or not) and
 * host traffic driven by one event per tick: every node draws a
 * request from a hash of (tick, node), and every request the system
 * receives is answered a few ticks later. The answers pending and the
 * next id are the traffic's whole state, so a rig archives and
 * restores completely.
 */
class Rig
{
  public:
    static constexpr Tick traffic_end = 768;

    Rig(const Case &c, bool sequential,
        noc::kernel::CycleFabricFactory fabric =
            noc::kernel::makeCycleFabric,
        HealthOptions health = HealthOptions())
    {
        params_.router = c.router;
        params_.columns = 4;
        params_.rows = 4;
        // The fabric seam is the VC network's.
        if (c.router == noc::RouterKind::Vc)
            net_ = std::make_unique<noc::CycleNetwork>(sim_, "noc", params_,
                                                       nullptr, fabric);
        else
            net_ = noc::makeDetailedNetwork(sim_, "noc", params_);
        // The rig's own pool pools every phase (threshold 0); the
        // bridge's would keep this 4x4 mesh's phases inline.
        if (c.engine_workers > 0) {
            pool_ = std::make_unique<ParallelEngine>(c.engine_workers, 0);
            net_->setEngine(pool_.get());
        }
        noc::NetworkModel *backend = net_.get();
        if (sequential) {
            deco_ = std::make_unique<Passthrough>(*net_);
            backend = deco_.get();
        }
        QuantumBridge::Options o;
        o.quantum = c.quantum;
        o.coupling = c.coupling;
        o.health = health;
        bridge_ = std::make_unique<QuantumBridge>(sim_, "bridge", *backend,
                                                  params_, o);
        bridge_->setDeliveryHandler(
            [this](const noc::PacketPtr &pkt) { onDelivery(pkt); });
        bridge_->setDeliveryObserver([this](const noc::PacketPtr &pkt) {
            observed.push_back({pkt->id, pkt->deliver_tick, pkt->hops});
        });
    }

    /** Start the traffic at tick @p from (0, or a restored boundary
     *  plus one). */
    void start(Tick from) { scheduleTick(from); }

    void advance(Tick t) { bridge_->advanceCoupled(t); }

    QuantumBridge &bridge() { return *bridge_; }
    const QuantumBridge &bridge() const { return *bridge_; }

    /** Phases the rig's pool ran on its workers (0 without one). */
    std::uint64_t
    pooledPhases() const
    {
        return pool_ ? pool_->pooledPhases() : 0;
    }

    /** The cycle network's fabric probe (rigs built over one). */
    const ProbeFabric &
    probe() const
    {
        return dynamic_cast<const ProbeFabric &>(
            dynamic_cast<const noc::CycleNetwork &>(*net_).fabric());
    }

    StatRows
    stats() const
    {
        StatRows rows;
        snapshotStats(*net_, rows);
        snapshotStats(*bridge_, rows);
        return rows;
    }

    std::string
    table() const
    {
        ArchiveWriter aw;
        bridge_->table().saveBinary(aw);
        return aw.finish();
    }

    /** The whole rig's checkpoint: bridge, network, stats, traffic. */
    std::string
    image() const
    {
        ArchiveWriter aw;
        bridge_->save(aw);
        net_->save(aw);
        saveStats(aw, *net_);
        saveStats(aw, *bridge_);
        aw.putU64(next_id_);
        aw.putU64(answers_.size());
        for (const Answer &a : answers_) {
            aw.putU64(a.due);
            aw.putU64(a.id);
            aw.putU32(a.src);
            aw.putU32(a.dst);
        }
        return aw.finish();
    }

    void
    restore(std::string image)
    {
        ArchiveReader ar(std::move(image));
        ASSERT_TRUE(ar.ok()) << ar.error();
        bridge_->restore(ar);
        net_->restore(ar);
        restoreStats(ar, *net_);
        restoreStats(ar, *bridge_);
        next_id_ = ar.getU64();
        answers_.resize(ar.getU64());
        for (Answer &a : answers_) {
            a.due = ar.getU64();
            a.id = ar.getU64();
            a.src = ar.getU32();
            a.dst = ar.getU32();
        }
    }

    /** Deliveries the system received, in order. */
    std::vector<Seen> delivered;
    /** Deliveries the detailed backend made, in order. */
    std::vector<Seen> observed;

  private:
    struct Answer
    {
        Tick due;
        PacketId id;
        NodeId src;
        NodeId dst;
    };

    void
    scheduleTick(Tick t)
    {
        sim_.eventq().scheduleLambda(t, [this, t] { onTick(t); });
    }

    void
    onTick(Tick t)
    {
        // Answers first, in (due, id) order.
        std::size_t n = 0;
        while (n < answers_.size() && answers_[n].due <= t) {
            const Answer &a = answers_[n++];
            bridge_->inject(noc::makePacket(a.id, a.src, a.dst,
                                            noc::MsgClass::Response, 64,
                                            t));
        }
        answers_.erase(answers_.begin(),
                       answers_.begin() + static_cast<std::ptrdiff_t>(n));
        if (t < traffic_end) {
            auto nodes = static_cast<std::uint64_t>(params_.numNodes());
            for (std::uint64_t node = 0; node < nodes; ++node) {
                std::uint64_t h = mix(t * nodes + node);
                if (h % 16 != 0)
                    continue;
                auto dst = static_cast<NodeId>((h >> 8) % nodes);
                if (dst == node)
                    dst = static_cast<NodeId>((node + 1) % nodes);
                bridge_->inject(noc::makePacket(
                    next_id_++, static_cast<NodeId>(node), dst,
                    noc::MsgClass::Request, (h >> 40) % 2 ? 8 : 64, t));
            }
        }
        scheduleTick(t + 1);
    }

    void
    onDelivery(const noc::PacketPtr &pkt)
    {
        delivered.push_back({pkt->id, pkt->deliver_tick, pkt->hops});
        if (pkt->cls != noc::MsgClass::Request)
            return;
        Answer a{std::max(pkt->deliver_tick, sim_.curTick()) + 3,
                 next_id_++, pkt->dst, pkt->src};
        auto at = std::upper_bound(
            answers_.begin(), answers_.end(), a,
            [](const Answer &x, const Answer &y) {
                return x.due != y.due ? x.due < y.due : x.id < y.id;
            });
        answers_.insert(at, a);
    }

    Simulation sim_;
    noc::NocParams params_;
    std::unique_ptr<ParallelEngine> pool_; ///< outlives the networks
    std::unique_ptr<noc::DetailedNetwork> net_;
    std::unique_ptr<Passthrough> deco_;
    std::unique_ptr<QuantumBridge> bridge_;
    PacketId next_id_ = 1;
    std::vector<Answer> answers_;
};

/** Every boundary compared, after the streams' first @p from_* entries
 *  (a resumed rig's streams start at its restore point). */
void
expectSameBoundary(const Rig &ref, const Rig &got, Tick boundary,
                   std::size_t from_delivered = 0,
                   std::size_t from_observed = 0)
{
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    ASSERT_EQ(got.delivered.size() + from_delivered, ref.delivered.size());
    for (std::size_t k = 0; k < got.delivered.size(); ++k)
        ASSERT_TRUE(got.delivered[k] == ref.delivered[k + from_delivered])
            << "system delivery #" << k + from_delivered;
    ASSERT_EQ(got.observed.size() + from_observed, ref.observed.size());
    for (std::size_t k = 0; k < got.observed.size(); ++k)
        ASSERT_TRUE(got.observed[k] == ref.observed[k + from_observed])
            << "backend delivery #" << k + from_observed;
    ASSERT_EQ(got.stats(), ref.stats());
    ASSERT_EQ(got.table(), ref.table());
    std::string a = ref.image(), b = got.image();
    auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    ASSERT_TRUE(diff.first == a.end() && diff.second == b.end())
        << "checkpoint bytes differ at offset " << (diff.first - a.begin())
        << " of " << a.size() << " / " << b.size();
}

constexpr Tick horizon = 1024;

class PipelineDifferential : public ::testing::TestWithParam<Case>
{
};

TEST_P(PipelineDifferential, BitIdenticalAtEveryBoundary)
{
    const Case &c = GetParam();
    Rig seq(c, true);
    Rig pipe(c, false);
    seq.start(0);
    pipe.start(0);
    for (Tick t = c.quantum; t <= horizon; t += c.quantum) {
        seq.advance(t);
        pipe.advance(t);
        expectSameBoundary(seq, pipe, t);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(seq.observed.size(), 1000u);
    EXPECT_EQ(pipe.bridge().quantaRun(), seq.bridge().quantaRun());
    if (c.engine_workers > 0) {
        EXPECT_GT(seq.pooledPhases(), 0u);
        EXPECT_GT(pipe.pooledPhases(), 0u);
    }
}

TEST_P(PipelineDifferential, ResumedPipelinedRunMatchesSequential)
{
    const Case &c = GetParam();
    Tick mid = (horizon / 2 / c.quantum) * c.quantum;
    Rig seq(c, true);
    auto pipe = std::make_unique<Rig>(c, false);
    seq.start(0);
    pipe->start(0);
    for (Tick t = c.quantum; t <= mid; t += c.quantum) {
        seq.advance(t);
        pipe->advance(t);
    }
    expectSameBoundary(seq, *pipe, mid);
    if (HasFatalFailure())
        return;

    std::string image = pipe->image();
    pipe = std::make_unique<Rig>(c, false);
    pipe->restore(image);
    pipe->start(mid + 1);
    std::size_t from_delivered = seq.delivered.size();
    std::size_t from_observed = seq.observed.size();
    for (Tick t = mid + c.quantum; t <= horizon; t += c.quantum) {
        seq.advance(t);
        pipe->advance(t);
        expectSameBoundary(seq, *pipe, t, from_delivered, from_observed);
        if (HasFatalFailure())
            return;
    }
}

std::vector<Case>
matrix()
{
    std::vector<Case> cases;
    for (Coupling coupling : {Coupling::Reciprocal, Coupling::Conservative})
        for (int workers : {0, 2})
            for (noc::RouterKind router :
                 {noc::RouterKind::Vc, noc::RouterKind::Deflection})
                for (Tick quantum : {Tick{1}, Tick{7}, Tick{256}})
                    cases.push_back({coupling, workers, router, quantum});
    return cases;
}

std::string
caseName(const Case &c)
{
    return std::string(c.coupling == Coupling::Reciprocal ? "Reciprocal"
                                                          : "Conservative") +
           (c.engine_workers ? "_Pool2" : "_Serial") +
           (c.router == noc::RouterKind::Vc ? "_Cycle" : "_Deflection") +
           "_Q" +
           std::to_string(c.quantum);
}

std::string
paramName(const ::testing::TestParamInfo<Case> &info)
{
    return caseName(info.param);
}

/** Keeps gtest from printing a Case as raw bytes in test names. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << caseName(c);
}

INSTANTIATE_TEST_SUITE_P(Matrix, PipelineDifferential,
                         ::testing::ValuesIn(matrix()), paramName);

TEST(PipelineDifferential, ThresholdSplitsTheQuanta)
{
    // Quanta 1 and 7 stay below the threshold and 256 is above it, so
    // the matrix covers both orders.
    EXPECT_GT(QuantumBridge::min_pipelined_quantum, Tick{7});
    EXPECT_LE(QuantumBridge::min_pipelined_quantum, Tick{256});
}

TEST(PipelineDifferential, OneStatFlushPerQuantum)
{
    // A pipelined quantum advances the soa kernel in many stepTo()
    // pieces, yet flushes its stats and moves its node-range cut once,
    // at the quantum's final advanceTo(), like the sequential order.
    Case c;
    c.engine_workers = 2;
    Rig seq(c, true, makeCountingFabric);
    Rig pipe(c, false, makeCountingFabric);
    seq.start(0);
    pipe.start(0);
    std::uint64_t quanta = 0;
    for (Tick t = c.quantum; t <= horizon; t += c.quantum) {
        seq.advance(t);
        pipe.advance(t);
        ++quanta;
        ASSERT_EQ(pipe.probe().flushes(), quanta);
        ASSERT_EQ(seq.probe().flushes(), quanta);
    }
}

TEST(PipelineDifferential, SharedCpuQuantaCountsAOneCpuRun)
{
    // Pinned to one CPU, the host and the backend thread (which
    // inherits the mask) end every threaded quantum on it; the
    // sequential rig has no second side to compare.
    struct Pin
    {
        cpu_set_t old;
        bool pinned = false;
        Pin()
        {
            int cpu = sched_getcpu();
            cpu_set_t one;
            CPU_ZERO(&one);
            if (cpu >= 0)
                CPU_SET(cpu, &one);
            pinned = cpu >= 0 &&
                     sched_getaffinity(0, sizeof(old), &old) == 0 &&
                     sched_setaffinity(0, sizeof(one), &one) == 0;
        }
        ~Pin()
        {
            if (pinned)
                sched_setaffinity(0, sizeof(old), &old);
        }
    } pin;
    ASSERT_TRUE(pin.pinned);
    Case c;
    Rig seq(c, true);
    Rig pipe(c, false);
    seq.start(0);
    pipe.start(0);
    seq.advance(horizon);
    pipe.advance(horizon);
    EXPECT_EQ(pipe.bridge().sharedCpuQuanta(), pipe.bridge().quantaRun());
    EXPECT_EQ(seq.bridge().sharedCpuQuanta(), 0u);
}

// ---------------------------------------------------------------------

TEST(PipelineFailure, FabricPanicTripsDegradesAndRecoversAsSequential)
{
    for (Coupling coupling : {Coupling::Reciprocal, Coupling::Conservative}) {
        SCOPED_TRACE(coupling == Coupling::Reciprocal ? "reciprocal"
                                                      : "conservative");
        Case c;
        c.coupling = coupling;
        c.quantum = 64;
        HealthOptions h;
        h.checkpoint_quanta = 1;
        h.recovery_quanta = 2;
        h.probation_quanta = 2;
        Rig seq(c, true, makePanickingFabric, h);
        Rig pipe(c, false, makePanickingFabric, h);
        seq.start(0);
        pipe.start(0);
        std::vector<QuantumBridge::HealthState> states;
        for (Tick t = c.quantum; t <= horizon; t += c.quantum) {
            seq.advance(t);
            pipe.advance(t);
            ASSERT_EQ(pipe.bridge().healthState(),
                      seq.bridge().healthState())
                << "boundary " << t;
            states.push_back(seq.bridge().healthState());
            expectSameBoundary(seq, pipe, t);
            if (HasFatalFailure())
                return;
        }
        // The panic tripped, degraded and recovered — on both sides.
        const HealthMonitor &m = *seq.bridge().health();
        EXPECT_EQ(m.internalTrips.value(), 1.0);
        EXPECT_EQ(m.degradations.value(), 1.0);
        EXPECT_EQ(m.recoveries.value(), 1.0);
        EXPECT_NE(std::find(states.begin(), states.end(),
                            QuantumBridge::HealthState::Degraded),
                  states.end());
        EXPECT_EQ(states.back(), QuantumBridge::HealthState::Healthy);
    }
}

TEST(PipelineFailure, BackendThrowWithDegradeOffSurfacesOnCallingThread)
{
    Case c;
    c.quantum = 64;
    HealthOptions h;
    h.degrade = false;
    Rig pipe(c, false, makePanickingFabric, h);
    pipe.start(0);
    try {
        pipe.advance(horizon);
        FAIL() << "the fabric panic did not surface";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Internal);
    }
    // The thread injected the rest of the quantum's packets and parked.
    EXPECT_EQ(pipe.bridge().backend().curTime(),
              ProbeFabric::panic_cycle);
}

using test::threadCount;
using test::threadCountSettlingAt;

TEST(PipelineFailure, HostThrowLeavesFullSystemRunWithoutLeakingThread)
{
    // A sanitizer runtime may start a helper thread along with the
    // process's first thread; start one first, so the counts below
    // see only the bridge's.
    std::thread([] {}).join();
    int before = threadCount();
    ASSERT_GT(before, 0);
    // Pipelined (cosim) and overlapped (cosim-gpu) quanta. Both build
    // the engine's pool, which starts no thread on a mesh this small.
    for (Mode mode : {Mode::CosimCycle, Mode::CosimGpu}) {
        SCOPED_TRACE(toString(mode));
        FullSystemOptions o;
        o.mode = mode;
        o.app = "lu";
        o.ops_per_core = 40;
        o.quantum = 64;
        o.noc.columns = 4;
        o.noc.rows = 4;
        o.mem.l1_sets = 16;
        int threads = before + 1;
        // The overlapped quantum's end is published up front, so its
        // backend runs the quantum out before it parks.
        Tick backend_at_most = mode == Mode::CosimGpu ? 128 : 101;
        {
            FullSystem fs(Config(), o);
            fs.simulation().eventq().scheduleLambda(
                100, [] { throw std::runtime_error("host event failed"); });
            EXPECT_THROW(fs.run(), std::runtime_error);
            EXPECT_EQ(fs.simulation().curTick(), 100u);
            // The backend thread is parked, not running on.
            EXPECT_EQ(threadCount(), threads);
            EXPECT_LE(fs.bridge().backend().curTime(), backend_at_most);

            // It serves the next run, which finishes.
            fs.run();
            EXPECT_TRUE(fs.allCoresDone());
            EXPECT_EQ(threadCount(), threads);
        }
        EXPECT_EQ(threadCountSettlingAt(before), before);
    }
}

TEST(PipelineFailure, HostThrowKeepsEveryInjection)
{
    // The host fails mid-quantum: the clones it injected before the
    // failure still reach the backend, and the next call delivers
    // them.
    Simulation sim;
    noc::NocParams p;
    noc::CycleNetwork net(sim, "noc", p);
    QuantumBridge::Options o;
    o.quantum = 64;
    o.coupling = Coupling::Reciprocal;
    QuantumBridge bridge(sim, "bridge", net, p, o);
    std::vector<PacketId> observed;
    bridge.setDeliveryObserver(
        [&](const noc::PacketPtr &pkt) { observed.push_back(pkt->id); });
    for (Tick t = 10; t < 40; t += 10) {
        sim.eventq().scheduleLambda(t, [&bridge, t] {
            bridge.inject(noc::makePacket(t, 0, 9, noc::MsgClass::Request,
                                          8, t));
        });
    }
    sim.eventq().scheduleLambda(
        40, [] { throw std::runtime_error("host event failed"); });
    EXPECT_THROW(bridge.advanceCoupled(640), std::runtime_error);
    EXPECT_EQ(sim.curTick(), 40u);
    ASSERT_TRUE(net.accounting());
    EXPECT_EQ(net.accounting()->injected, 3u);
    EXPECT_LE(net.curTime(), 41u);

    bridge.advanceCoupled(640);
    EXPECT_EQ(observed, (std::vector<PacketId>{10, 20, 30}));
    EXPECT_TRUE(bridge.idle());
}

TEST(PipelineFailure, OutOfRangeInjectionIsFatalOnTheHostThread)
{
    // Both threaded plans: pipelined, and overlapped, which hands the
    // packet to the backend thread only in the next quantum.
    for (bool overlap : {false, true}) {
        SCOPED_TRACE(overlap ? "overlapped" : "pipelined");
        Simulation sim;
        noc::NocParams p;
        noc::CycleNetwork net(sim, "noc", p);
        QuantumBridge::Options o;
        o.quantum = 64;
        o.overlap = overlap;
        o.coupling = Coupling::Reciprocal;
        o.health.degrade = false;
        QuantumBridge bridge(sim, "bridge", net, p, o);
        sim.eventq().scheduleLambda(5, [&bridge] {
            bridge.inject(noc::makePacket(1, 0, 999,
                                          noc::MsgClass::Request, 8, 5));
        });
        logging::ThrowOnError guard;
        try {
            bridge.advanceCoupled(64);
            FAIL() << "out-of-range packet accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Config);
            EXPECT_NE(std::string(e.what()).find("outside"),
                      std::string::npos);
        }
        // Raised by the injecting event itself, not at the join.
        EXPECT_EQ(sim.curTick(), 5u);
    }
}

// ---------------------------------------------------------------------

/**
 * One small full-system run per quantum plan, pinned to the values
 * the bridge's four-runner implementation produced: the finish tick,
 * the packets delivered, the mean packet latency and a CRC of the
 * whole stats dump. The differentials above compare plans with each
 * other; these compare each plan with its own past, so a change that
 * moves every plan alike (or the overlapped one, which has no
 * sequential twin) still shows. Re-pin only with a deliberate change
 * of simulated results.
 */
struct Pinned
{
    const char *plan;
    void (*configure)(FullSystemOptions &);
    Tick finish;
    std::uint64_t delivered;
    double mean_latency;
    std::uint64_t stats_crc;
};

TEST(PipelineRegression, EveryPlanMatchesItsRecordedRun)
{
    const Pinned runs[] = {
        {"sequential", [](FullSystemOptions &o) { o.quantum = 8; }, 10319,
         2000, 10.27, 0x169755c69f320ef2ull},
        {"pipelined", [](FullSystemOptions &o) { o.quantum = 64; }, 10554,
         2000, 10.263, 0x9a602cc38bb17766ull},
        {"overlapped",
         [](FullSystemOptions &o) { o.mode = Mode::CosimGpu; }, 10754,
         2000, 10.836499999999999, 0x422b2ecf73eaca7aull},
        {"conservative",
         [](FullSystemOptions &o) { o.conservative = true; }, 11226, 2000,
         10.394500000000001, 0x5d0eca144f576eadull},
        {"tuned",
         [](FullSystemOptions &o) {
             o.health.divergence_error = 1e-6;
             o.health.recovery_quanta = 4;
         },
         10493, 143, 10.160839160839162, 0xb43a96cd259db19cull},
    };
    for (const Pinned &r : runs) {
        SCOPED_TRACE(r.plan);
        FullSystemOptions o;
        o.mode = Mode::CosimCycle;
        o.app = "fft";
        o.ops_per_core = 60;
        o.quantum = 32;
        o.noc.columns = 4;
        o.noc.rows = 4;
        o.mem.l1_sets = 16;
        r.configure(o);
        FullSystem fs(Config(), o);
        Tick finish = fs.run();
        ASSERT_TRUE(fs.allCoresDone());
        std::ostringstream dump;
        stats::dumpText(dump, fs.simulation().statsRoot());
        EXPECT_EQ(finish, r.finish);
        EXPECT_EQ(fs.packetsDelivered(), r.delivered);
        EXPECT_EQ(fs.meanPacketLatency(), r.mean_latency)
            << std::setprecision(17) << fs.meanPacketLatency();
        EXPECT_EQ(crc64(dump.str()), r.stats_crc)
            << std::hex << "0x" << crc64(dump.str());
        if (o.health.divergence_error > 0.0) {
            EXPECT_GT(fs.bridge().health()->degradedQuanta.value(), 0.0);
        }
    }
}

} // namespace
