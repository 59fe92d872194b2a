/**
 * @file
 * Engine-switch differential: under ParallelEngine's work rule a run's
 * phases move between the calling thread (few active nodes) and the
 * pool (many) as its traffic comes and goes. Bursts over a trickle on
 * a 16x16 mesh make them switch a dozen times, and the run
 * must stay bit-identical to a serial one in every observable: the
 * delivery stream, the CRC-64 of the rendered stats dump, the archive
 * bytes at every quantum boundary, and a resume from an image taken
 * between switches — for both detailed networks.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "sim/parallel_engine.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "stats/output.hh"

namespace
{

using namespace rasim;
using namespace rasim::noc;

constexpr int side = 16;
constexpr Tick quantum = 64;
constexpr int quanta = 48;
constexpr Tick run_end = quanta * quantum + 4000;

/**
 * Forwards to a pool, hints included, and counts the phases whose
 * placement differs from the phase before (inline after pooled or
 * pooled after inline).
 */
class SwitchCounter : public StepEngine
{
  public:
    explicit SwitchCounter(ParallelEngine &inner) : inner_(inner) {}

    void hintActive(std::size_t nodes) override { inner_.hintActive(nodes); }

    void
    forRange(std::size_t n,
             const std::function<void(std::size_t, std::size_t)> &fn)
        override
    {
        std::uint64_t pooled = inner_.pooledPhases();
        inner_.forRange(n, fn);
        bool now_pooled = inner_.pooledPhases() != pooled;
        if (inner_.phasesRun() > 1 && now_pooled != last_pooled_)
            ++switches;
        last_pooled_ = now_pooled;
    }

    const char *name() const override { return "switch-counter"; }

    std::uint64_t switches = 0;

  private:
    ParallelEngine &inner_;
    bool last_pooled_ = false;
};

/**
 * Quantum @p q's packets: a trickle that keeps a few dozen nodes
 * active, and on two quanta of every eight a burst that activates
 * most of the mesh. The network never idles, so the work rule sees
 * each quiet stretch (an idle network runs no phase at all).
 */
std::vector<PacketPtr>
burst(Rng &rng, int q, PacketId &next_id)
{
    std::vector<PacketPtr> pkts;
    constexpr std::uint64_t nodes = side * side;
    int count = q % 8 < 2 ? 300 : 30;
    for (int k = 0; k < count; ++k) {
        pkts.push_back(makePacket(
            next_id++, static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64,
            q * quantum + static_cast<Tick>(rng.range(quantum))));
    }
    return pkts;
}

struct Run
{
    std::vector<std::pair<PacketId, Tick>> deliveries;
    std::uint64_t stats_crc = 0;
    std::vector<std::string> images; ///< after every quantum
    std::vector<std::size_t> delivered; ///< deliveries after each
};

template <typename Net>
std::string
image(const Net &net)
{
    ArchiveWriter aw;
    net.save(aw);
    saveStats(aw, net);
    return aw.finish();
}

std::uint64_t
statsCrc(const stats::Group &g)
{
    std::ostringstream os;
    stats::dumpText(os, g);
    return crc64(os.str());
}

/**
 * Run the bursts on @p engine (null: serial), starting from @p from
 * (an image taken after quantum @p from_q, or empty for a cold start).
 */
template <typename Net>
Run
runBursts(StepEngine *engine, const std::string &from = "",
          int from_q = -1)
{
    Simulation sim;
    NocParams p;
    p.columns = side;
    p.rows = side;
    Net net(sim, "net", p);
    if (engine)
        net.setEngine(engine);
    Run r;
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.emplace_back(pkt->id, pkt->deliver_tick);
    });
    if (!from.empty()) {
        ArchiveReader ar(from);
        EXPECT_TRUE(ar.ok()) << ar.error();
        net.restore(ar);
        restoreStats(ar, net);
    }
    // Replay the generator from the start, so a resumed run injects
    // the very packets the uninterrupted one did after its image.
    Rng rng(0x5e1c, 11);
    PacketId next_id = 1;
    for (int q = 0; q < quanta; ++q) {
        std::vector<PacketPtr> pkts = burst(rng, q, next_id);
        if (q <= from_q)
            continue;
        for (const PacketPtr &pkt : pkts)
            net.inject(pkt);
        net.advanceTo((q + 1) * quantum);
        r.images.push_back(image(net));
        r.delivered.push_back(r.deliveries.size());
    }
    net.advanceTo(run_end);
    EXPECT_TRUE(net.idle());
    r.stats_crc = statsCrc(net);
    return r;
}

template <typename Net>
void
expectSwitchingRunsBitIdentical()
{
    Run serial = runBursts<Net>(nullptr);
    ASSERT_GT(serial.deliveries.size(), 2000u);

    // The default threshold: the rule itself does the switching.
    ParallelEngine pool(2);
    SwitchCounter counter(pool);
    Run pooled = runBursts<Net>(&counter);
    EXPECT_GE(counter.switches, 10u) << counter.switches;
    EXPECT_GT(pool.pooledPhases(), 0u);
    EXPECT_LT(pool.pooledPhases(), pool.phasesRun());

    EXPECT_EQ(pooled.deliveries, serial.deliveries);
    EXPECT_EQ(pooled.stats_crc, serial.stats_crc);
    ASSERT_EQ(pooled.images.size(), serial.images.size());
    for (std::size_t q = 0; q < serial.images.size(); ++q)
        ASSERT_EQ(pooled.images[q], serial.images[q]) << "quantum " << q;

    // Resume from the end of a burst, where the traffic is about to
    // drain into a quiet stretch: under the pool, and the pool's image
    // on the serial engine.
    const int save_q = 9;
    const std::vector<std::pair<PacketId, Tick>> want(
        serial.deliveries.begin() +
            static_cast<std::ptrdiff_t>(serial.delivered[save_q]),
        serial.deliveries.end());
    ASSERT_FALSE(want.empty());
    ParallelEngine resume_pool(2);
    SwitchCounter resume_counter(resume_pool);
    for (StepEngine *engine : {static_cast<StepEngine *>(&resume_counter),
                               static_cast<StepEngine *>(nullptr)}) {
        Run tail =
            runBursts<Net>(engine, pooled.images[save_q], save_q);
        EXPECT_EQ(tail.deliveries, want);
        EXPECT_EQ(tail.stats_crc, serial.stats_crc);
        for (std::size_t k = 0; k < tail.images.size(); ++k)
            ASSERT_EQ(tail.images[k], serial.images[save_q + 1 + k])
                << "quantum " << save_q + 1 + k;
    }
    EXPECT_GE(resume_counter.switches, 6u) << resume_counter.switches;
}

TEST(EngineSwitch, CycleNetworkBitIdenticalAcrossSwitches)
{
    expectSwitchingRunsBitIdentical<CycleNetwork>();
}

TEST(EngineSwitch, DeflectionNetworkBitIdenticalAcrossSwitches)
{
    expectSwitchingRunsBitIdentical<DeflectionNetwork>();
}

} // namespace
