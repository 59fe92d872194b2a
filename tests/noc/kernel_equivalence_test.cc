/**
 * @file
 * Object-vs-SoA compute-kernel differential: the soa kernel must be
 * bit-identical to the object oracle (tests/noc/oracle/, injected
 * through the networks' fabric factory) on both detailed models —
 * same deliveries, same rendered stats tree, and the same checkpoint
 * *bytes*, which is what makes checkpoints interchangeable across
 * kernels. Also covers the SIMD lane (scalar vs dispatched AVX2 must
 * agree), a matrix of cycle-network shapes that drives the soa
 * kernel's VC-bitmask allocators down every path and resumes
 * checkpoints across kernels both ways, stats visibility under the
 * soa kernel's per-advanceTo stat fold, packet-pool leak checks, and
 * the typed rejection of bad kernel/simd/VC config.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/expect_error.hh"
#include "noc/cycle_network.hh"
#include "noc/deflection_network.hh"
#include "noc/oracle/oracle.hh"
#include "sim/config.hh"
#include "sim/cpuid.hh"
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

struct Delivery
{
    PacketId id;
    Tick deliver_tick;
    Tick latency;
    std::uint32_t hops;
    std::uint32_t size_bytes;

    bool
    operator==(const Delivery &o) const
    {
        return id == o.id && deliver_tick == o.deliver_tick &&
               latency == o.latency && hops == o.hops &&
               size_bytes == o.size_bytes;
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
    std::vector<Delivery> deliveries;
    std::vector<std::tuple<std::string, std::string, double>> stats;
    std::string archive; ///< checkpoint bytes taken mid-run
};

NocParams
testParams(const std::string &simd = "auto")
{
    NocParams p;
    p.columns = 6;
    p.rows = 6;
    p.simd = simd;
    return p;
}

/** Seeded uniform-random traffic: `packets` packets, `per_tick` of
 *  them injected per tick. */
struct Traffic
{
    int packets = 400;
    int per_tick = 3;
};

constexpr Tick checkpoint_tick = 200;
constexpr Tick run_end = 20000;

template <typename Net>
void
injectTraffic(Net &net, const Traffic &t)
{
    Rng rng(0x50a, 7);
    std::size_t nodes = net.numNodes();
    for (int i = 0; i < t.packets; ++i) {
        net.inject(makePacket(
            static_cast<PacketId>(i + 1),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<NodeId>(rng.range(nodes)),
            static_cast<MsgClass>(rng.range(3)),
            rng.bernoulli(0.5) ? 8 : 64,
            static_cast<Tick>(i / t.per_tick)));
    }
}

template <typename Net>
void
recordDeliveries(Net &net, RunResult &r)
{
    net.setDeliveryHandler([&r](const PacketPtr &pkt) {
        r.deliveries.push_back({pkt->id, pkt->deliver_tick,
                                pkt->latency(), pkt->hops,
                                pkt->size_bytes});
    });
}

/** Run to completion, snapshotting a checkpoint at @p checkpoint.
 *  A drained network holds no packet, so the packet pool is back to
 *  its pre-traffic occupancy. */
template <typename Net>
RunResult
runNet(const NocParams &params, Kernel kernel, const Traffic &traffic = {},
       Tick checkpoint = checkpoint_tick)
{
    std::uint64_t live0 = packetPool().stats().live;
    {
        Simulation sim;
        Net net(sim, "net", params, nullptr, oracle::fabric<Net>(kernel));
        RunResult r;
        recordDeliveries(net, r);
        injectTraffic(net, traffic);
        net.advanceTo(checkpoint);
        {
            ArchiveWriter aw;
            net.save(aw);
            saveStats(aw, net);
            r.archive = aw.finish();
        }
        net.advanceTo(run_end);
        EXPECT_TRUE(net.idle());
        EXPECT_EQ(packetPool().stats().live, live0)
            << "packets leaked by a drained " << oracle::name(kernel)
            << " network";
        snapshotStats(net, r.stats);
        return r;
    }
}

template <typename Net>
RunResult
runKernel(Kernel kernel, const std::string &simd = "auto")
{
    return runNet<Net>(testParams(simd), kernel);
}

/** Restore `image` (a runNet checkpoint) into a fresh network and run
 *  it to the end; deliveries are those after the checkpoint. */
template <typename Net>
RunResult
resumeNet(const NocParams &params, Kernel kernel, std::string image)
{
    Simulation sim;
    Net net(sim, "net", params, nullptr, oracle::fabric<Net>(kernel));
    RunResult r;
    recordDeliveries(net, r);
    std::uint64_t live0 = packetPool().stats().live;
    ArchiveReader ar(std::move(image));
    EXPECT_TRUE(ar.ok()) << ar.error();
    net.restore(ar);
    restoreStats(ar, net);
    net.advanceTo(run_end);
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(packetPool().stats().live, live0)
        << "packets leaked by a drained " << oracle::name(kernel)
        << " network after restore";
    snapshotStats(net, r.stats);
    return r;
}

/** The tail of @p full that a run resumed from its checkpoint must
 *  reproduce: the last @p resumed deliveries and the final stats. */
RunResult
tailOf(const RunResult &full, std::size_t resumed)
{
    RunResult tail;
    tail.deliveries.assign(full.deliveries.end() - resumed,
                           full.deliveries.end());
    tail.stats = full.stats; // both archives stay empty
    return tail;
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
    ASSERT_EQ(got.stats.size(), ref.stats.size()) << label;
    for (std::size_t k = 0; k < ref.stats.size(); ++k)
        ASSERT_EQ(got.stats[k], ref.stats[k])
            << label << " stat " << std::get<0>(ref.stats[k]) << "."
            << std::get<1>(ref.stats[k]);
    // The strongest claim: both kernels serialise to the same bytes,
    // so one CRC covers both and checkpoints hop across kernels.
    EXPECT_EQ(got.archive, ref.archive) << label << " archive bytes";
}

TEST(KernelEquivalence, CycleNetworkSoaMatchesObject)
{
    RunResult object = runKernel<CycleNetwork>(Kernel::Object);
    ASSERT_EQ(object.deliveries.size(), 400u);
    RunResult soa = runKernel<CycleNetwork>(Kernel::Soa);
    expectSameRun(object, soa, "cycle soa");
}

/**
 * Cycle-network shapes beyond the default light-load XY mesh, each
 * aimed at a soa VA/SA path: adaptive output selection, dateline VC
 * classes (12 VCs per port), deep VC pools with shallow buffers and a
 * one-stage pipeline, a saturating burst whose round-robin pointers
 * keep wrapping past bit 0 of the VC masks, and a checkpoint late in
 * a long run, after the soa packet slots have been recycled many
 * times and while multi-flit packets are partly ejected.
 */
struct MaskCase
{
    const char *name;
    NocParams params;
    Traffic traffic;
    Tick checkpoint = checkpoint_tick;
};

const std::vector<MaskCase> &
maskCases()
{
    static const std::vector<MaskCase> cases = [] {
        std::vector<MaskCase> c;
        NocParams westfirst = testParams();
        westfirst.routing = "westfirst";
        c.push_back({"westfirst", westfirst, {800, 4}});

        NocParams torus = testParams();
        torus.topology = "torus";
        torus.vc_classes = 2;
        c.push_back({"torus_datelines", torus, {400, 3}});

        NocParams deep = testParams();
        deep.vcs_per_vnet = 4;
        deep.buffer_depth = 2;
        deep.pipeline_stages = 1;
        c.push_back({"vcs4_depth2_stages1", deep, {600, 4}});

        NocParams burst = testParams();
        burst.columns = 4;
        burst.rows = 4;
        c.push_back({"saturating_burst", burst, {1500, 150}});

        c.push_back({"late_checkpoint", testParams(), {4000, 3},
                     1201});
        return c;
    }();
    return cases;
}

class CycleKernelMatrix : public testing::TestWithParam<int>
{
};

TEST_P(CycleKernelMatrix, SoaMatchesObject)
{
    const MaskCase &c = maskCases()[GetParam()];
    const NocParams &p = c.params;
    RunResult object =
        runNet<CycleNetwork>(p, Kernel::Object, c.traffic, c.checkpoint);
    ASSERT_EQ(object.deliveries.size(),
              static_cast<std::size_t>(c.traffic.packets));
    RunResult soa =
        runNet<CycleNetwork>(p, Kernel::Soa, c.traffic, c.checkpoint);
    expectSameRun(object, soa, c.name);

    // The object checkpoint, taken mid-run, resumed on soa: the VC
    // masks and the packet slot table are rebuilt from the restored
    // FIFOs, queues and links, so the rest of the run must match the
    // object run's tail. The soa checkpoint resumed on object must
    // match it too.
    RunResult resumed =
        resumeNet<CycleNetwork>(p, Kernel::Soa, object.archive);
    ASSERT_LT(resumed.deliveries.size(), object.deliveries.size());
    expectSameRun(tailOf(object, resumed.deliveries.size()), resumed,
                  std::string(c.name) + " object->soa");

    RunResult back =
        resumeNet<CycleNetwork>(p, Kernel::Object, soa.archive);
    expectSameRun(tailOf(soa, back.deliveries.size()), back,
                  std::string(c.name) + " soa->object");
}

TEST(KernelEquivalence, LateCheckpointCatchesPartlyEjectedPackets)
{
    // The late_checkpoint case is only a slot-recycling test if most
    // packets were delivered before its checkpoint, and a reassembly
    // test if a multi-flit packet was mid-ejection at it. A node
    // ejects at most one flit per cycle, so an F-flit packet whose
    // tail ejected in the F-1 cycles after the checkpoint (deliver
    // tick in (T, T+F)) had its head ejected before it.
    const MaskCase *late = nullptr;
    for (const MaskCase &c : maskCases())
        if (std::string(c.name) == "late_checkpoint")
            late = &c;
    ASSERT_NE(late, nullptr);
    const NocParams &p = late->params;
    RunResult r =
        runNet<CycleNetwork>(p, Kernel::Soa, late->traffic, late->checkpoint);
    std::size_t before = 0, partly = 0;
    for (const Delivery &d : r.deliveries) {
        Tick flits = p.flitsPerPacket(d.size_bytes);
        if (d.deliver_tick <= late->checkpoint)
            ++before;
        else if (flits > 1 && d.deliver_tick < late->checkpoint + flits)
            ++partly;
    }
    EXPECT_GT(before, static_cast<std::size_t>(late->traffic.packets) / 2);
    EXPECT_GT(partly, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MaskPaths, CycleKernelMatrix,
    testing::Range(0, static_cast<int>(maskCases().size())),
    [](const testing::TestParamInfo<int> &info) {
        return std::string(maskCases()[info.param].name);
    });

/** Stats below @p net, keyed by path relative to it. */
std::vector<std::tuple<std::string, std::string, double>>
relativeStats(const CycleNetwork &net)
{
    std::vector<std::tuple<std::string, std::string, double>> all;
    snapshotStats(net, all);
    for (auto &entry : all)
        std::get<0>(entry).erase(0, net.path().size());
    return all;
}

TEST(KernelEquivalence, StatsVisibleAfterEveryAdvance)
{
    // The soa kernel batches router/NIC stat increments and folds them
    // once per advanceTo. Step both kernels in strides of 1 and 37
    // cycles through bursts separated by idle gaps (so the fast-forward
    // path ends some calls early): after every call, every node's
    // routerActivity and the whole stats tree must already match, and
    // a checkpoint taken between calls must be byte-identical.
    for (Tick stride : {Tick(1), Tick(37)}) {
        Simulation sim;
        CycleNetwork object(sim, "object", testParams(), nullptr,
                            oracle::makeCycleFabric);
        CycleNetwork soa(sim, "soa", testParams());
        for (CycleNetwork *net : {&object, &soa}) {
            Rng rng(0x57a7, 11);
            for (int k = 0; k < 240; ++k) {
                // Four bursts of 60 packets, 700 cycles apart.
                Tick at = static_cast<Tick>(k / 60) * 700 + (k % 60) / 3;
                net->inject(makePacket(
                    static_cast<PacketId>(k + 1),
                    static_cast<NodeId>(rng.range(36)),
                    static_cast<NodeId>(rng.range(36)),
                    static_cast<MsgClass>(rng.range(3)),
                    rng.bernoulli(0.5) ? 8 : 64, at));
            }
        }
        bool saved = false, saw_idle = false;
        for (Tick t = stride; t <= 2900; t += stride) {
            object.advanceTo(t);
            soa.advanceTo(t);
            ASSERT_EQ(soa.deliveredCount(), object.deliveredCount())
                << "stride " << stride << " tick " << t;
            saw_idle = saw_idle || object.idle();
            for (std::size_t i = 0; i < object.numNodes(); ++i) {
                kernel::RouterActivity a = object.routerActivity(i);
                kernel::RouterActivity b = soa.routerActivity(i);
                ASSERT_EQ(b.flits_routed, a.flits_routed)
                    << "stride " << stride << " tick " << t << " node "
                    << i;
                ASSERT_EQ(b.buffer_writes, a.buffer_writes);
                ASSERT_EQ(b.link_traversals, a.link_traversals);
            }
            ASSERT_EQ(relativeStats(soa), relativeStats(object))
                << "stride " << stride << " tick " << t;
            if (!saved && t >= 730 && !object.idle()) {
                ArchiveWriter ao, as;
                object.save(ao);
                soa.save(as);
                EXPECT_EQ(as.finish(), ao.finish())
                    << "stride " << stride << " tick " << t;
                saved = true;
            }
        }
        EXPECT_TRUE(saved);
        EXPECT_TRUE(saw_idle);
        EXPECT_TRUE(object.idle());
        EXPECT_EQ(object.deliveredCount(), 240u);
    }
}

TEST(KernelEquivalence, DeflectionNetworkSoaMatchesObject)
{
    RunResult object = runKernel<DeflectionNetwork>(Kernel::Object);
    ASSERT_EQ(object.deliveries.size(), 400u);
    RunResult soa = runKernel<DeflectionNetwork>(Kernel::Soa);
    expectSameRun(object, soa, "deflection soa");
}

TEST(KernelEquivalence, SimdLaneMatchesForcedScalar)
{
    // kernel.simd=scalar versus the dispatched default ("auto", which
    // picks AVX2 on a capable host/build): the occupancy scan is the
    // only SIMD-touched code, and skipping an all-idle node is a
    // provable no-op, so the runs must agree bit for bit.
    RunResult scalar = runKernel<CycleNetwork>(Kernel::Soa, "scalar");
    RunResult dispatched = runKernel<CycleNetwork>(Kernel::Soa, "auto");
    expectSameRun(scalar, dispatched, "cycle simd lane");

    RunResult dscalar = runKernel<DeflectionNetwork>(Kernel::Soa, "scalar");
    RunResult ddispatched =
        runKernel<DeflectionNetwork>(Kernel::Soa, "auto");
    expectSameRun(dscalar, ddispatched, "deflection simd lane");
}

TEST(KernelEquivalence, FabricDescribesItsDispatch)
{
    Simulation sim;
    CycleNetwork obj(sim, "obj", testParams(), nullptr,
                     oracle::makeCycleFabric);
    EXPECT_EQ(obj.fabric().description(), "object");

    CycleNetwork soa(sim, "soa", testParams("scalar"));
    EXPECT_EQ(soa.fabric().description(), "soa (simd=scalar)");
}

TEST(KernelEquivalence, UnknownKernelRejected)
{
    // soa is the only kernel a run can select: the object kernel is a
    // test oracle, so naming it in a config is as wrong as a typo.
    for (const char *kernel : {"object", "vector"}) {
        Config cfg;
        cfg.set("network.kernel", std::string(kernel));
        EXPECT_SIM_ERROR(config::parse<NocParams>(cfg),
                         "unknown network.kernel");
    }
    Config cfg;
    cfg.set("network.kernel", std::string("soa"));
    config::parse<NocParams>(cfg);
    EXPECT_TRUE(cfg.unreadKeysWithPrefix("network.").empty());
}

TEST(KernelEquivalence, UnknownSimdPolicyRejected)
{
    NocParams p = testParams();
    p.simd = "sse9";
    EXPECT_SIM_ERROR(p.validate(), "unknown kernel.simd");
}

TEST(KernelEquivalence, SoaWithUnsatisfiableAvx2Rejected)
{
    if (!cpuid::simdCompiledIn())
        GTEST_SKIP() << "AVX2 kernel not compiled in (RASIM_SIMD=off)";
    // Constructing a soa network with an explicit kernel.simd=avx2 on
    // a host without AVX2 must raise SimError(Config) at build time,
    // not fall back silently.
    cpuid::setHostOverrideForTest(false);
    {
        Simulation sim;
        EXPECT_SIM_ERROR(
            CycleNetwork(sim, "net", testParams("avx2")),
            "avx2");
    }
    cpuid::clearHostOverrideForTest();
}

TEST(KernelEquivalence, SoaRejectsMoreThan32VcsPerPort)
{
    // The soa kernel's VC masks are 32 bits wide, so validate()
    // rejects more than 32 VCs per port at the config edge, before a
    // Hello is sent or a fabric is built. 3 vnets x 2 classes x 5 VCs
    // = 30 fits; x 6 = 36 does not.
    NocParams p = testParams();
    p.vc_classes = 2;
    p.vcs_per_vnet = 5;
    ASSERT_EQ(p.totalVcs(), 30);
    p.validate();
    p.vcs_per_vnet = 6;
    ASSERT_EQ(p.totalVcs(), 36);
    EXPECT_SIM_ERROR(p.validate(), "at most 32 VCs per port");
    {
        // Programmatic params bypass fromConfig; the network still
        // validates them before it builds a fabric.
        Simulation sim;
        EXPECT_SIM_ERROR(CycleNetwork(sim, "net", p),
                         "at most 32 VCs per port");
    }

    Config cfg;
    cfg.set("noc.vcs_per_vnet", 11); // 33 VCs on a mesh
    EXPECT_SIM_ERROR(config::parse<NocParams>(cfg),
                     "at most 32 VCs per port");
}

} // namespace
