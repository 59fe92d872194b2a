/**
 * @file
 * Serial-vs-parallel differential harness: the determinism contract
 * says a pooled run must be *bit-identical* to a serial run — same
 * per-packet delivery ticks, hop counts and delivery order, and the
 * same rendered statistics down to float rounding — for both detailed
 * network backends. This is the property that makes the paper's
 * parallel co-simulation claim testable rather than aspirational.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "noc/oracle/oracle.hh"
#include "sim/parallel_engine.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "stats/group.hh"
#include "stats/stat.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;
using oracle::Kernel;

/** One delivered packet, every field a parallel run could disturb. */
struct Delivery
{
    PacketId id;
    Tick deliver_tick;
    Tick latency;
    std::uint32_t hops;

    bool
    operator==(const Delivery &o) const
    {
        return id == o.id && deliver_tick == o.deliver_tick &&
               latency == o.latency && hops == o.hops;
    }
};

/** Flatten a stats subtree to (path.stat, sub-name, value) rows. */
void
snapshotStats(const stats::Group &g,
              std::vector<std::tuple<std::string, std::string, double>>
                  &out)
{
    for (const stats::Stat *s : g.statList())
        for (const auto &[sub, v] : s->values())
            out.emplace_back(g.path() + "." + s->name(), sub, v);
    for (const stats::Group *c : g.children())
        snapshotStats(*c, out);
}

struct RunResult
{
    std::vector<Delivery> deliveries; ///< in delivery order
    std::vector<std::tuple<std::string, std::string, double>> stats;
};

/** Seeded random traffic: mixed sizes, classes, all node pairs. */
template <typename Net>
void
driveTraffic(Net &net, std::size_t nodes)
{
    Rng rng(0x6e7, 3);
    for (int i = 0; i < 600; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64, static_cast<Tick>(i / 3)));
    }
    net.advanceTo(20000);
}

template <typename Net>
RunResult
runNetwork(StepEngine *engine, Kernel kernel = Kernel::Soa)
{
    Simulation sim;
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    Net net(sim, "net", p, nullptr, oracle::fabric<Net>(kernel));
    if (engine)
        net.setEngine(engine);
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                pkt->latency(), pkt->hops});
    });
    driveTraffic(net, net.numNodes());
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

void
expectSameRun(const RunResult &ref, const RunResult &got,
              const std::string &label)
{
    ASSERT_EQ(got.deliveries.size(), ref.deliveries.size()) << label;
    for (std::size_t k = 0; k < ref.deliveries.size(); ++k)
        ASSERT_TRUE(got.deliveries[k] == ref.deliveries[k])
            << label << " delivery #" << k << " packet "
            << ref.deliveries[k].id;

    // Rendered statistics must match bit for bit: identical sample
    // order (fixed-order reduction) means identical float rounding,
    // not merely close means.
    ASSERT_EQ(got.stats.size(), ref.stats.size()) << label;
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        ASSERT_EQ(got.stats[k], ref.stats[k])
            << label << " stat " << std::get<0>(ref.stats[k]) << "."
            << std::get<1>(ref.stats[k]);
}

template <typename Net>
void
expectEngineEquivalence()
{
    // The object oracle on the serial engine is the single
    // reference; every other (kernel × engine) cell must be
    // bit-identical to it.
    RunResult serial = runNetwork<Net>(nullptr, Kernel::Object);
    ASSERT_EQ(serial.deliveries.size(), 600u);

    for (Kernel kernel : {Kernel::Object, Kernel::Soa}) {
        std::string label = std::string("kernel=") + oracle::name(kernel);
        if (kernel != Kernel::Object) {
            RunResult alt = runNetwork<Net>(nullptr, kernel);
            expectSameRun(serial, alt, label + " serial");
        }
        for (int workers : {1, 2, 8}) {
            // Threshold 0: every phase pools, whatever its activity.
            ParallelEngine pool(workers, 0);
            RunResult parallel = runNetwork<Net>(&pool, kernel);
            expectSameRun(serial, parallel,
                          label + " workers=" + std::to_string(workers));
            EXPECT_EQ(pool.pooledPhases(), pool.phasesRun()) << label;
            EXPECT_GT(pool.pooledPhases(), 0u) << label;
        }
    }
}

TEST(EngineEquivalence, CycleNetworkBitIdenticalAcrossEngines)
{
    expectEngineEquivalence<CycleNetwork>();
}

TEST(EngineEquivalence, DeflectionNetworkBitIdenticalAcrossEngines)
{
    expectEngineEquivalence<DeflectionNetwork>();
}

TEST(EngineEquivalence, SharedPoolAcrossBothBackends)
{
    // One pool can serve several networks in turn (the bridge reuses
    // its engine across quanta); results stay identical to serial.
    ParallelEngine pool(2, 0);
    RunResult cyc_serial = runNetwork<CycleNetwork>(nullptr);
    RunResult cyc_pool = runNetwork<CycleNetwork>(&pool);
    std::uint64_t cyc_pooled = pool.pooledPhases();
    RunResult def_serial = runNetwork<DeflectionNetwork>(nullptr);
    RunResult def_pool = runNetwork<DeflectionNetwork>(&pool);
    EXPECT_GT(cyc_pooled, 0u);
    EXPECT_GT(pool.pooledPhases(), cyc_pooled);
    EXPECT_TRUE(cyc_serial.deliveries == cyc_pool.deliveries);
    EXPECT_TRUE(def_serial.deliveries == def_pool.deliveries);
    EXPECT_TRUE(cyc_serial.stats == cyc_pool.stats);
    EXPECT_TRUE(def_serial.stats == def_pool.stats);
}

// ---------------------------------------------------------------------
// Moving cut points. The soa kernel splits its nodes over the pool by
// the work each did since the last advanceTo, so traffic whose hot
// region migrates between advanceTo calls moves the cut mid-run. Every
// cut must give the serial result, and an archive must not depend on
// the engine that wrote it or the one that resumes it.
// ---------------------------------------------------------------------

constexpr Tick hot_quantum = 64;
constexpr int hot_quanta = 40;

/** Forwards to a pool and records every forRange extent it sees. */
class ExtentRecorder : public StepEngine
{
  public:
    explicit ExtentRecorder(StepEngine &inner) : inner_(inner) {}

    void
    forEach(std::size_t n,
            const std::function<void(std::size_t)> &fn) override
    {
        inner_.forEach(n, fn);
    }

    void
    forRange(std::size_t n,
             const std::function<void(std::size_t, std::size_t)> &fn)
        override
    {
        extents.insert(n);
        inner_.forRange(n, fn);
    }

    const char *name() const override { return "extent-recorder"; }

    std::set<std::size_t> extents;

  private:
    StepEngine &inner_;
};

/**
 * Quantum @p q's packets: 80% to or from a 3x3 hot block whose centre
 * jumps across the 8x8 mesh every quantum, the rest uniform.
 */
std::vector<PacketPtr>
hotQuantum(Rng &rng, int q, PacketId &next_id)
{
    int cx = 1 + (q * 5) % 6;
    int cy = 1 + (q * 3) % 6;
    auto hot = [&] {
        int x = cx - 1 + static_cast<int>(rng.range(3));
        int y = cy - 1 + static_cast<int>(rng.range(3));
        return static_cast<NodeId>(y * 8 + x);
    };
    auto any = [&] { return static_cast<NodeId>(rng.range(64)); };
    std::vector<PacketPtr> pkts;
    for (int k = 0; k < 40; ++k) {
        bool to_hot = rng.bernoulli(0.8);
        bool inbound = rng.bernoulli(0.5);
        NodeId a = to_hot ? hot() : any();
        NodeId b = any();
        pkts.push_back(makePacket(
            next_id++, inbound ? b : a, inbound ? a : b,
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64,
            q * hot_quantum + static_cast<Tick>(rng.range(hot_quantum))));
    }
    return pkts;
}

struct HotRun
{
    RunResult result;
    std::size_t deliveries_at_save = 0;
    std::string image; ///< archive taken after quantum `save_after`
};

/** The hotspot run on the soa kernel; archives after @p save_after
 *  quanta when it is non-negative. */
HotRun
runHotspot(StepEngine *engine, int save_after = -1)
{
    Simulation sim;
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    CycleNetwork net(sim, "net", p);
    if (engine)
        net.setEngine(engine);
    HotRun r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.result.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                       pkt->latency(), pkt->hops});
    });
    Rng rng(0x407, 5);
    PacketId next_id = 1;
    for (int q = 0; q < hot_quanta; ++q) {
        for (const PacketPtr &pkt : hotQuantum(rng, q, next_id))
            net.inject(pkt);
        net.advanceTo((q + 1) * hot_quantum);
        if (q == save_after) {
            ArchiveWriter aw;
            net.save(aw);
            saveStats(aw, net);
            r.image = aw.finish();
            r.deliveries_at_save = r.result.deliveries.size();
        }
    }
    net.advanceTo(hot_quanta * hot_quantum + 4000);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.result.stats);
    return r;
}

/** Restore @p image into a fresh soa network on @p engine, re-inject
 *  the quanta after @p save_after and finish the run. */
RunResult
resumeHotspot(StepEngine *engine, std::string image, int save_after)
{
    Simulation sim;
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    CycleNetwork net(sim, "net", p);
    if (engine)
        net.setEngine(engine);
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                pkt->latency(), pkt->hops});
    });
    ArchiveReader ar(std::move(image));
    EXPECT_TRUE(ar.ok()) << ar.error();
    net.restore(ar);
    restoreStats(ar, net);
    // Replay the generator so the injections after the save point are
    // the very packets the uninterrupted run injected.
    Rng rng(0x407, 5);
    PacketId next_id = 1;
    for (int q = 0; q < hot_quanta; ++q) {
        std::vector<PacketPtr> pkts = hotQuantum(rng, q, next_id);
        if (q <= save_after)
            continue;
        for (const PacketPtr &pkt : pkts)
            net.inject(pkt);
        net.advanceTo((q + 1) * hot_quantum);
    }
    net.advanceTo(hot_quanta * hot_quantum + 4000);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

TEST(EngineEquivalence, SoaMovingCutPointsBitIdentical)
{
    HotRun serial = runHotspot(nullptr);
    ASSERT_EQ(serial.result.deliveries.size(),
              static_cast<std::size_t>(40 * hot_quanta));
    for (int workers : {1, 2, 3, 8}) {
        // The recorder does not forward hints, so every phase pools.
        ParallelEngine pool(workers);
        ExtentRecorder rec(pool);
        HotRun pooled = runHotspot(&rec);
        expectSameRun(serial.result, pooled.result,
                      "workers=" + std::to_string(workers));
        EXPECT_EQ(pool.pooledPhases(), pool.phasesRun());
        EXPECT_GT(pool.pooledPhases(), 0u);
        // The extent is the summed node weight; it changing means the
        // kernel re-cut its ranges while the traffic moved.
        EXPECT_GT(rec.extents.size(), 10u)
            << "workers=" << workers << ": ranges never re-cut";
    }
}

TEST(EngineEquivalence, SoaCheckpointCrossesEngines)
{
    constexpr int save_after = 17;
    HotRun serial = runHotspot(nullptr, save_after);
    ASSERT_FALSE(serial.image.empty());
    RunResult want;
    want.deliveries.assign(serial.result.deliveries.begin() +
                               serial.deliveries_at_save,
                           serial.result.deliveries.end());
    want.stats = serial.result.stats;
    ASSERT_FALSE(want.deliveries.empty());

    for (int workers : {2, 3}) {
        std::string label = "workers=" + std::to_string(workers);
        ParallelEngine pool(workers, 0);
        HotRun pooled = runHotspot(&pool, save_after);
        EXPECT_GT(pool.pooledPhases(), 0u) << label;
        // The archive does not record the cut: same bytes either way.
        ASSERT_EQ(pooled.image, serial.image) << label;

        // Saved under the pool, resumed on serial ...
        RunResult tail = resumeHotspot(nullptr, pooled.image, save_after);
        expectSameRun(want, tail, label + " pool -> serial");
        // ... and saved on serial, resumed under the pool.
        tail = resumeHotspot(&pool, serial.image, save_after);
        expectSameRun(want, tail, label + " serial -> pool");
    }
}

} // namespace
