/**
 * @file
 * The default engine configuration: the cycle-level modes run their
 * network on a host-sized pool (system.parallel=true), whose work rule
 * keeps a small mesh's phases inline without starting a thread, pools
 * a 16x16 run's busy phases, and never changes a simulated byte, on
 * either router organisation.
 */

#include <gtest/gtest.h>

#include "common/thread_count.hh"

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>

#include "cosim/full_system.hh"
#include "sim/logging.hh"
#include "sim/parallel_engine.hh"
#include "stats/output.hh"

namespace
{

using namespace rasim;
using namespace rasim::cosim;

TEST(DefaultEngine, PoolLeavesAThreadToTheHostAndOneToTheBackend)
{
    unsigned hw = std::thread::hardware_concurrency();
    int want = hw > 2 ? static_cast<int>(std::min(2u, hw - 2)) : 0;
    EXPECT_EQ(defaultEngineWorkers(), want);
    FullSystemOptions o;
    EXPECT_TRUE(o.parallel);
    EXPECT_EQ(o.engine_workers, want);
}

TEST(DefaultEngine, DefaultWorkersNeverWarnOfOversubscription)
{
    std::uint64_t before = warnCount();
    ::testing::internal::CaptureStderr();
    {
        ParallelEngine engine(defaultEngineWorkers());
        FullSystemOptions o;
        o.noc.columns = 4;
        o.noc.rows = 4;
        FullSystem sys(Config(), o);
    }
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(warnCount(), before) << err;
    EXPECT_EQ(err.find("oversubscribe"), std::string::npos) << err;
}

TEST(DefaultEngine, SmallMeshRunStartsNoWorkerThread)
{
    // A sanitizer runtime may start a helper thread along with the
    // process's first thread; start one first, so the counts below
    // see only the simulator's.
    std::thread([] {}).join();
    int before = test::threadCount();
    ASSERT_GT(before, 0);
    FullSystemOptions o;
    o.app = "lu";
    o.ops_per_core = 60;
    o.quantum = 64;
    o.noc.columns = 4;
    o.noc.rows = 4;
    o.mem.l1_sets = 16;
    {
        FullSystem sys(Config(), o);
        sys.run();
        ASSERT_TRUE(sys.allCoresDone());
        // The bridge's backend thread, and no pool worker: 16 nodes
        // never reach the work rule's threshold.
        EXPECT_EQ(test::threadCount(), before + 1);
        if (const ParallelEngine *pool = sys.bridge().engine()) {
            EXPECT_GT(pool->phasesRun(), 0u);
            EXPECT_EQ(pool->pooledPhases(), 0u);
            EXPECT_EQ(pool->threadsStarted(), 0);
        }
    }
    EXPECT_EQ(test::threadCountSettlingAt(before), before);
}

struct Outcome
{
    std::string image; ///< checkpoint mid-run
    Tick finish = 0;
    std::string stats; ///< rendered stats dump at the end
};

Outcome
run16x16(noc::RouterKind router, bool parallel, std::uint64_t *pooled)
{
    FullSystemOptions o;
    o.noc.router = router;
    o.app = "fft";
    o.ops_per_core = 40;
    o.noc.columns = 16;
    o.noc.rows = 16;
    o.parallel = parallel;
    FullSystem sys(Config(), o);
    Outcome out;
    sys.run(8 * o.quantum);
    std::ostringstream image;
    sys.saveTo(image);
    out.image = image.str();
    out.finish = sys.run();
    EXPECT_TRUE(sys.allCoresDone());
    std::ostringstream dump;
    stats::dumpText(dump, sys.simulation().statsRoot());
    out.stats = dump.str();
    const ParallelEngine *pool = sys.bridge().engine();
    *pooled = pool ? pool->pooledPhases() : 0;
    return out;
}

TEST(DefaultEngine, MeshOf256PoolsBusyPhasesBitIdentically)
{
    if (defaultEngineWorkers() == 0)
        GTEST_SKIP() << "a host of two hardware threads or fewer gets "
                        "no default pool";
    for (noc::RouterKind router :
         {noc::RouterKind::Vc, noc::RouterKind::Deflection}) {
        SCOPED_TRACE(config::nameOf(router, noc::router_names));
        std::uint64_t pooled = 0, serial_pooled = 0;
        Outcome dflt = run16x16(router, true, &pooled);
        Outcome serial = run16x16(router, false, &serial_pooled);
        EXPECT_GT(pooled, 0u);
        EXPECT_EQ(serial_pooled, 0u);
        EXPECT_EQ(dflt.image, serial.image);
        EXPECT_EQ(dflt.finish, serial.finish);
        EXPECT_EQ(dflt.stats, serial.stats);
    }
}

} // namespace
