/**
 * @file
 * Checkpoint/resume differential harness at the network level: running
 * N cycles straight must be *bit-identical* to running to a mid-point,
 * archiving the network, restoring into a freshly constructed one and
 * finishing the run — same per-packet delivery order, ticks and hop
 * counts, and the same rendered statistics — for both detailed
 * models, on the serial and the pooled engine, and with the checkpoint
 * hopping between the soa kernel and the object oracle either way.
 */

#include <gtest/gtest.h>

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

constexpr Tick run_end = 20000;
constexpr int num_packets = 600;

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

NocParams
testParams()
{
    NocParams p;
    p.columns = 8;
    p.rows = 8;
    return p;
}

/** Seeded random traffic: mixed sizes, classes, all node pairs. */
template <typename Net>
void
injectTraffic(Net &net)
{
    Rng rng(0x6e7, 3);
    std::size_t nodes = net.numNodes();
    for (int i = 0; i < num_packets; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64, static_cast<Tick>(i / 3)));
    }
}

template <typename Net>
RunResult
runStraight(StepEngine *engine)
{
    Simulation sim;
    Net net(sim, "net", testParams());
    if (engine)
        net.setEngine(engine);
    RunResult r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    });
    injectTraffic(net);
    net.advanceTo(run_end);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

/** Run to `mid`, archive, restore into a fresh network and finish.
 *  The save-side and restore-side compute kernels are independent:
 *  the soa kernel and the object oracle emit and accept the same
 *  archive bytes, so a checkpoint can hop between them either way. */
template <typename Net>
RunResult
runSplit(StepEngine *engine, Tick mid, Kernel save_kernel = Kernel::Soa,
         Kernel restore_kernel = Kernel::Soa)
{
    RunResult r;
    auto record = [&r](const PacketPtr &pkt) {
        r.deliveries.push_back(
            {pkt->id, pkt->deliver_tick, pkt->latency(), pkt->hops});
    };

    std::string image;
    {
        Simulation sim;
        Net net(sim, "net", testParams(), nullptr,
                oracle::fabric<Net>(save_kernel));
        if (engine)
            net.setEngine(engine);
        net.setDeliveryHandler(record);
        injectTraffic(net);
        net.advanceTo(mid);
        // The checkpoint must capture a non-trivial moment: packets in
        // flight and injections still pending.
        EXPECT_FALSE(net.idle());
        ArchiveWriter aw;
        net.save(aw);
        saveStats(aw, net);
        image = aw.finish();
    } // the original network is gone — restore starts from scratch

    Simulation sim;
    Net net(sim, "net", testParams(), nullptr,
            oracle::fabric<Net>(restore_kernel));
    if (engine)
        net.setEngine(engine);
    net.setDeliveryHandler(record);
    ArchiveReader ar(std::move(image));
    EXPECT_TRUE(ar.ok()) << ar.error();
    net.restore(ar);
    restoreStats(ar, net);
    net.advanceTo(run_end);
    EXPECT_TRUE(net.idle());
    snapshotStats(net, r.stats);
    return r;
}

void
expectIdentical(const RunResult &ref, const RunResult &got,
                const std::string &label)
{
    ASSERT_EQ(got.deliveries.size(), ref.deliveries.size()) << label;
    for (std::size_t k = 0; k < ref.deliveries.size(); ++k)
        ASSERT_TRUE(got.deliveries[k] == ref.deliveries[k])
            << label << " delivery #" << k << " packet "
            << ref.deliveries[k].id;
    ASSERT_EQ(got.stats.size(), ref.stats.size()) << label;
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        ASSERT_EQ(got.stats[k], ref.stats[k])
            << label << " stat " << std::get<0>(ref.stats[k]) << "."
            << std::get<1>(ref.stats[k]);
}

template <typename Net>
void
expectResumeEquivalence()
{
    RunResult ref = runStraight<Net>(nullptr);
    ASSERT_EQ(ref.deliveries.size(),
              static_cast<std::size_t>(num_packets));

    // Checkpoint mid-injection (pending traffic and in-flight flits)
    // and late (drained injection queues, still in flight) — the late
    // point is derived from the reference so it lands before the
    // fabric empties.
    Tick last = ref.deliveries.back().deliver_tick;
    ASSERT_GT(last, 210u);
    for (Tick mid : {Tick{150}, (Tick{200} + last) / 2}) {
        RunResult serial = runSplit<Net>(nullptr, mid);
        expectIdentical(ref, serial,
                        "serial split at " + std::to_string(mid));

        ParallelEngine pool(2, 0);
        RunResult parallel = runSplit<Net>(&pool, mid);
        expectIdentical(ref, parallel,
                        "parallel split at " + std::to_string(mid));
        EXPECT_GT(pool.pooledPhases(), 0u);

        // The object oracle emits and accepts the same archive bytes,
        // so the full matrix — object→object, and a checkpoint hopping
        // between kernels in either direction — must land on the same
        // run.
        RunResult obj = runSplit<Net>(nullptr, mid, Kernel::Object,
                                      Kernel::Object);
        expectIdentical(ref, obj,
                        "object split at " + std::to_string(mid));
        RunResult obj_to_soa =
            runSplit<Net>(nullptr, mid, Kernel::Object, Kernel::Soa);
        expectIdentical(ref, obj_to_soa,
                        "object->soa split at " + std::to_string(mid));
        RunResult soa_to_obj =
            runSplit<Net>(nullptr, mid, Kernel::Soa, Kernel::Object);
        expectIdentical(ref, soa_to_obj,
                        "soa->object split at " + std::to_string(mid));
    }
}

TEST(ResumeEquivalence, CycleNetworkBitIdenticalAfterRestore)
{
    expectResumeEquivalence<CycleNetwork>();
}

TEST(ResumeEquivalence, DeflectionNetworkBitIdenticalAfterRestore)
{
    expectResumeEquivalence<DeflectionNetwork>();
}

TEST(ResumeEquivalence, RestoreIndependentOfPacketPoolState)
{
    // Checkpoints store packets as payloads keyed by id, never pool
    // slot indices. Restoring into a process whose packet pool has a
    // completely different occupancy (holes, reordered free list) must
    // still reproduce the straight run bit-for-bit.
    RunResult ref = runStraight<CycleNetwork>(nullptr);

    // Churn the process-wide pool: allocate a block of packets and
    // free every other one, so the restore below lands in scrambled
    // slots a cold-started process would never use.
    std::vector<PacketPtr> churn;
    for (int i = 0; i < 300; ++i) {
        churn.push_back(makePacket(
            static_cast<PacketId>(1000000 + i), 0, 1, MsgClass::Request,
            8, 0));
    }
    for (std::size_t i = 0; i < churn.size(); i += 2)
        churn[i].reset();

    RunResult split = runSplit<CycleNetwork>(nullptr, 150);
    expectIdentical(ref, split, "restore into churned pool");
}

TEST(ResumeEquivalence, ArchiveBytesAreReproducible)
{
    // Two identical runs must produce byte-identical archives — the
    // property that lets a CRC stand in for a deep comparison.
    auto image = [](Tick mid) {
        Simulation sim;
        CycleNetwork net(sim, "net", testParams());
        injectTraffic(net);
        net.advanceTo(mid);
        ArchiveWriter aw;
        net.save(aw);
        saveStats(aw, net);
        return aw.finish();
    };
    EXPECT_EQ(image(300), image(300));
}

} // namespace
