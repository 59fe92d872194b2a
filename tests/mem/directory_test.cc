/**
 * @file
 * Directory request queueing: requests that arrive while a block has a
 * forward transaction in flight wait in a per-block FIFO. These tests
 * drive one home slice directly (incoming messages by handleMessage(),
 * outgoing ones over a real network to recording handlers) and pin the
 * FIFO order, the queued_messages count, and the checkpoint layout of a
 * non-empty queue across save and resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "mem/directory.hh"
#include "mem/message_hub.hh"
#include "noc/cycle_network.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"

namespace
{

using namespace rasim;
using namespace rasim::mem;

constexpr NodeId home = 0;
constexpr Addr block = 0x4000; // any block; only home 0 exists here

/** (receiving node, type, requestor, ack count) of one delivery. */
using Delivery = std::tuple<NodeId, MsgType, NodeId, int>;

/** One home slice wired to a 4x4 network whose other nodes record
 *  what the directory sends them. */
struct HomeFixture
{
    HomeFixture()
        : net(sim, "noc", noc::NocParams()),
          hub(sim, "hub", net, params.control_bytes,
              static_cast<std::uint32_t>(params.dataBytes())),
          dir(sim, "dir", home, params, hub)
    {
        net.setDeliveryHandler(
            [this](const noc::PacketPtr &pkt) { hub.deliver(pkt); });
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            hub.registerHandler(n, [this, n](const CoherenceMsg &m) {
                log.emplace_back(n, m.type, m.requestor, m.ack_count);
            });
        }
    }

    /** Run until every sent message has been delivered. */
    void
    settle()
    {
        Tick t = sim.curTick();
        for (Tick limit = t + 10000; t < limit;) {
            ++t;
            sim.run(t);
            net.advanceTo(t);
            if (sim.eventq().empty() && net.idle() &&
                hub.outstanding() == 0)
                return;
        }
        FAIL() << "messages did not settle";
    }

    /** Hand @p type from @p sender (on behalf of @p requestor) to the
     *  directory, as the hub would on delivery. */
    void
    request(MsgType type, NodeId sender, NodeId requestor)
    {
        CoherenceMsg m;
        m.type = type;
        m.addr = block;
        m.sender = sender;
        m.requestor = requestor;
        dir.handleMessage(m);
    }

    /** Deliveries since the last take(). */
    std::vector<Delivery>
    take()
    {
        std::vector<Delivery> out;
        out.swap(log);
        return out;
    }

    MemParams params;
    Simulation sim;
    noc::CycleNetwork net;
    MessageHub hub;
    Directory dir;
    std::vector<Delivery> log;
};

/**
 * Node 1 owns the block; node 2's GetS is forwarded to it, and four
 * requests queue behind the forward. The owner's WBData then drains
 * the queue in arrival order until node 4's GetS starts a new forward.
 */
void
queueBehindForward(HomeFixture &f)
{
    f.request(MsgType::GetM, 1, 1);
    f.settle();
    ASSERT_EQ(f.take(), (std::vector<Delivery>{
                            {1, MsgType::Data, 1, 0}}));
    EXPECT_EQ(f.dir.probeState(block), 'M');

    f.request(MsgType::GetS, 2, 2); // forwarded to owner 1: busy
    EXPECT_EQ(f.dir.probeState(block), 'B');
    f.request(MsgType::GetM, 3, 3);
    f.request(MsgType::GetS, 4, 4);
    f.request(MsgType::PutM, 1, 1); // stale once 3 owns the block
    f.request(MsgType::GetS, 5, 5);
    EXPECT_EQ(f.dir.probeQueued(block), 4u);
    EXPECT_DOUBLE_EQ(f.dir.queuedMessages.value(), 4.0);
    f.settle();
    ASSERT_EQ(f.take(), (std::vector<Delivery>{
                            {1, MsgType::FwdGetS, 2, 0}}));

    // Owner downgrades: S{1,2}. FIFO: GetM(3) invalidates 1 and 2 and
    // takes M; GetS(4) forwards to the new owner 3 and blocks again.
    f.request(MsgType::WBData, 1, 2);
    EXPECT_EQ(f.dir.probeState(block), 'B');
    EXPECT_EQ(f.dir.probeQueued(block), 2u);
    EXPECT_DOUBLE_EQ(f.dir.getMReceived.value(), 2.0);
    EXPECT_DOUBLE_EQ(f.dir.getSReceived.value(), 2.0);
    EXPECT_DOUBLE_EQ(f.dir.putMReceived.value(), 0.0);
    f.settle();
    std::vector<Delivery> got = f.take();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<Delivery>{
                       {1, MsgType::Inv, 3, 0},
                       {2, MsgType::Inv, 3, 0},
                       {3, MsgType::FwdGetS, 4, 0},
                       {3, MsgType::Data, 3, 2},
                   }));
}

/** Finish node 4's forward; the stale PutM(1) and GetS(5) drain. */
void
drainRest(HomeFixture &f)
{
    f.request(MsgType::WBData, 3, 4);
    EXPECT_EQ(f.dir.probeQueued(block), 0u);
    EXPECT_EQ(f.dir.probeState(block), 'S');
    EXPECT_EQ(f.dir.probeSharerCount(block), 3u); // 3, 4, 5
    EXPECT_DOUBLE_EQ(f.dir.putMReceived.value(), 1.0);
    EXPECT_DOUBLE_EQ(f.dir.getSReceived.value(), 3.0);
    EXPECT_TRUE(f.dir.quiescent());
    f.settle();
    std::vector<Delivery> got = f.take();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<Delivery>{
                       {1, MsgType::WBAck, 1, 0},
                       {5, MsgType::Data, 5, 0},
                   }));
}

std::string
saveDir(const Directory &dir)
{
    ArchiveWriter aw;
    dir.save(aw);
    return aw.finish();
}

TEST(NodeSet, SortedUniqueInlineUntilWideSharing)
{
    NodeSet s;
    for (NodeId n : {9u, 2u, 5u, 2u, 7u})
        s.insert(n);
    EXPECT_EQ(std::vector<NodeId>(s.begin(), s.end()),
              (std::vector<NodeId>{2, 5, 7, 9}));
    EXPECT_EQ(s.count(5), 1u);
    EXPECT_EQ(s.count(6), 0u);
    // Wide sharing spills to the heap and stays sorted.
    for (NodeId n = 0; n < 40; n += 3)
        s.insert(n);
    std::vector<NodeId> got(s.begin(), s.end());
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    EXPECT_EQ(s.size(), 17u); // 0, 3, .., 39 plus 2, 5 and 7
    s.clear();
    EXPECT_TRUE(s.empty());
}

TEST(DirectoryQueue, RequestsBehindAForwardDrainInArrivalOrder)
{
    HomeFixture f;
    queueBehindForward(f);
    drainRest(f);
    EXPECT_DOUBLE_EQ(f.dir.queuedMessages.value(), 4.0);
}

TEST(DirectoryQueue, CheckpointWithQueuedRequestsResumesInOrder)
{
    HomeFixture f;
    queueBehindForward(f);
    ASSERT_EQ(f.dir.probeQueued(block), 2u);

    std::string image = saveDir(f.dir);
    // The layout of a queued entry — count, then each message oldest
    // first — is the one the std::deque-based directory wrote: this is
    // that implementation's archive of the same state (re-pinned when
    // the archive header moved to format version 2; the body bytes are
    // unchanged).
    EXPECT_EQ(image.size(), 228u);
    EXPECT_EQ(crc64(image), 0xf362bf5c02631b6cull);

    // Resume on a fresh slice at the checkpoint's clock.
    HomeFixture r;
    r.sim.eventq().restoreState(f.sim.curTick(),
                                f.sim.eventq().nextSequence(),
                                f.sim.eventq().numProcessed());
    r.sim.markInitialized();
    r.net.advanceTo(f.sim.curTick());
    ArchiveReader ar(image);
    ASSERT_TRUE(ar.ok()) << ar.error();
    r.dir.restore(ar);
    EXPECT_EQ(saveDir(r.dir), image);
    EXPECT_EQ(r.dir.probeState(block), 'B');
    EXPECT_EQ(r.dir.probeQueued(block), 2u);

    // Counters are statistics, restored by the stats tree rather than
    // the directory; carry them over so both runs can be compared.
    r.dir.getSReceived.set(f.dir.getSReceived.value());
    r.dir.getMReceived.set(f.dir.getMReceived.value());
    r.dir.putMReceived.set(f.dir.putMReceived.value());
    drainRest(r);
    drainRest(f);
    EXPECT_EQ(saveDir(r.dir), saveDir(f.dir));
}

} // namespace
