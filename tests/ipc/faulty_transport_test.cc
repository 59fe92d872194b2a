/**
 * @file
 * FaultyTransport against a live rasim-nocd server: every forced
 * fault kind must surface as the documented SimError at the right
 * layer — send-side faults immediately, receive-side faults through
 * the frame decoder (torn frame, short read, CRC trip, forged
 * oversize length, stall timeout) — and every injected failure must
 * leave the channel closed, the way a real transport failure leaves
 * the stream untrustworthy. Also covers the server-side chaos mode:
 * a daemon that tears its own reply mid-frame (the mid-frame-kill
 * scenario without killing the process) while staying healthy for
 * the next session.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "ipc/faulty_transport.hh"
#include "ipc/frame.hh"
#include "ipc/nocd_server.hh"
#include "ipc/protocol.hh"
#include "noc/packet.hh"
#include "sim/fault_injector.hh"
#include "sim/sim_error.hh"

namespace
{

using namespace rasim;
using namespace rasim::ipc;

class FaultyTransportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        addr_ = "unix:/tmp/rasim-faulty-" + std::to_string(::getpid()) +
                ".sock";
    }

    void
    TearDown() override
    {
        stopServer();
    }

    void
    startServer(NocServerOptions opts = {})
    {
        opts.address = addr_;
        server_ = std::make_unique<NocServer>(opts);
        thread_ = std::thread([this] { server_->run(); });
    }

    void
    stopServer()
    {
        if (!server_)
            return;
        server_->stop();
        thread_.join();
        server_.reset();
    }

    /** A connected channel wrapped in a forced-fault decorator (all
     *  probabilities zero: only failNext*() injects). */
    std::unique_ptr<FaultyTransport>
    connectFaulty()
    {
        TransportFaultOptions opts;
        opts.enabled = true;
        auto inner =
            std::make_unique<FdChannel>(connectTo(addr_, 2000.0));
        return std::make_unique<FaultyTransport>(std::move(inner),
                                                 opts);
    }

    void
    hello(ByteChannel &ch)
    {
        HelloRequest req;
        req.params.columns = 4;
        req.params.rows = 4;
        ArchiveWriter aw = beginMessage(MsgType::Hello);
        encodeHello(aw, req);
        sendMessage(ch, std::move(aw));
        auto rep = recvMessage(ch, 5000.0);
        ASSERT_TRUE(rep.has_value());
        ASSERT_EQ(rep->type, MsgType::HelloAck);
        (void)decodeHelloReply(rep->ar);
        rep->done();
    }

    void
    sendStep(ByteChannel &ch, Tick target)
    {
        StepRequest req;
        req.target = target;
        ArchiveWriter aw = beginMessage(MsgType::Step);
        encodeStep(aw, req);
        sendMessage(ch, std::move(aw));
    }

    std::string addr_;
    std::unique_ptr<NocServer> server_;
    std::thread thread_;
};

TEST_F(FaultyTransportTest, SendFaultsSurfaceImmediatelyAndClose)
{
    startServer();
    for (TransportFaultKind kind : {TransportFaultKind::Disconnect,
                                    TransportFaultKind::ShortRead,
                                    TransportFaultKind::TornFrame}) {
        auto ch = connectFaulty();
        ch->failNextSend(kind);
        ArchiveWriter aw = beginMessage(MsgType::Hello);
        encodeHello(aw, HelloRequest{});
        try {
            sendMessage(*ch, std::move(aw));
            FAIL() << "send survived forced " << toString(kind);
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Transport) << toString(kind);
            EXPECT_NE(std::string(e.what()).find(
                          "injected transport fault"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(toString(kind)),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(ch->valid())
            << toString(kind) << " left the channel open";
        EXPECT_EQ(ch->schedule().count(kind), 1u);
    }
}

TEST_F(FaultyTransportTest, DelayedSendCompletesIntact)
{
    startServer();
    auto ch = connectFaulty();
    ch->failNextSend(TransportFaultKind::Delay);
    hello(*ch); // the delayed Hello still lands whole
    EXPECT_TRUE(ch->valid());
}

TEST_F(FaultyTransportTest, CorruptedSendTripsTheServersCrc)
{
    startServer();
    auto ch = connectFaulty();
    hello(*ch);
    // The corrupted frame leaves this side happily, the server's
    // decoder trips on the CRC and drops the session; the client
    // notices at the reply — a closed stream, not a hang.
    ch->failNextSend(TransportFaultKind::Corrupt);
    sendStep(*ch, 100);
    try {
        auto rep = recvMessage(*ch, 5000.0);
        EXPECT_FALSE(rep.has_value()) << "server accepted a bad CRC";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport) << e.what();
    }
}

TEST_F(FaultyTransportTest, RecvFaultsMapOntoTheFrameTaxonomy)
{
    startServer();
    struct Case
    {
        TransportFaultKind kind;
        ErrorKind expect;
        const char *needle;
        bool closes; ///< the injector itself killed the stream
    };
    const Case cases[] = {
        {TransportFaultKind::ShortRead, ErrorKind::Transport, "closed",
         true},
        {TransportFaultKind::TornFrame, ErrorKind::Transport, "closed",
         true},
        // Oversize forges the length field; the channel survives but
        // the stream is desynchronised — the caller must abandon it.
        {TransportFaultKind::Oversize, ErrorKind::Transport,
         "oversized frame rejected", false},
        {TransportFaultKind::Stall, ErrorKind::Timeout, "stall", true},
    };
    for (const Case &c : cases) {
        auto ch = connectFaulty();
        hello(*ch);
        sendStep(*ch, 100);
        ch->failNextRecv(c.kind);
        try {
            (void)recvMessage(*ch, 5000.0);
            FAIL() << "recv survived forced " << toString(c.kind);
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), c.expect) << toString(c.kind) << ": "
                                          << e.what();
            EXPECT_NE(std::string(e.what()).find(c.needle),
                      std::string::npos)
                << toString(c.kind) << " message: " << e.what();
        }
        EXPECT_EQ(ch->valid(), !c.closes) << toString(c.kind);
    }
}

TEST_F(FaultyTransportTest, ScheduledCorruptionTripsTheArchiveCrc)
{
    // The probability schedule applies Corrupt only to *payload*
    // reads (header bands have no corrupt entry), so a CRC trip is
    // always an archive-level failure with framing intact. Client
    // ops: 0 Hello send, 1/2 its reply, 3 Step send, 4/5 its
    // reply — arming the schedule at op 5 corrupts exactly the
    // StepReply payload.
    startServer();
    TransportFaultOptions opts;
    opts.enabled = true;
    opts.corrupt = 1.0;
    opts.start_op = 5;
    auto inner = std::make_unique<FdChannel>(connectTo(addr_, 2000.0));
    FaultyTransport ch(std::move(inner), opts);
    hello(ch);
    sendStep(ch, 100);
    try {
        (void)recvMessage(ch, 5000.0);
        FAIL() << "corrupted reply decoded";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("corrupt message payload"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(ch.schedule().count(TransportFaultKind::Corrupt), 1u);
}

TEST_F(FaultyTransportTest, ServerSideChaosTearsReplyMidFrame)
{
    // Server-side schedule: ops 0-2 serve the Hello exchange (recv
    // header, recv payload, send ack); op 3/4 receive the Step;
    // op 5 — the StepReply — is the first armed op and
    // tears with probability 1. The client must see the torn reply as
    // a Transport error mid-payload: the mid-frame-kill scenario,
    // with the daemon alive throughout.
    NocServerOptions sopts;
    sopts.fault.enabled = true;
    sopts.fault.torn_frame = 1.0;
    sopts.fault.start_op = 5;
    startServer(sopts);

    Fd fd = connectTo(addr_, 2000.0);
    FdChannel ch(std::move(fd));
    hello(ch);
    sendStep(ch, 100);
    try {
        (void)recvMessage(ch, 5000.0);
        FAIL() << "torn server reply decoded";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport) << e.what();
    }

    // Per-session schedules: the next session (its own stream) gets
    // the same deterministic plan — a clean handshake — and the
    // daemon is still healthy enough to serve it.
    Fd fd2 = connectTo(addr_, 2000.0);
    FdChannel ch2(std::move(fd2));
    hello(ch2);
    EXPECT_GE(server_->sessionsServed(), 2u);
}

} // namespace
