/**
 * @file
 * The daemon's graceful wind-down and its session watchdog. drain()
 * (what SIGTERM triggers) must let an in-flight request finish and
 * close every session at a frame boundary — the client sees complete
 * replies followed by a clean EOF, never a torn frame — and run()
 * must return within the drain timeout. The watchdog must reap a
 * session that stops completing frames (a hung or vanished client)
 * by shutting its socket down from the accept thread, freeing the
 * seat for new sessions.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "ipc/frame.hh"
#include "ipc/nocd_server.hh"
#include "ipc/protocol.hh"
#include "sim/sim_error.hh"

namespace
{

using namespace rasim;
using namespace rasim::ipc;

class DrainWatchdogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        addr_ = "unix:/tmp/rasim-drain-" + std::to_string(::getpid()) +
                ".sock";
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->stop();
            if (thread_.joinable())
                thread_.join();
        }
    }

    void
    startServer(NocServerOptions opts = {})
    {
        opts.address = addr_;
        server_ = std::make_unique<NocServer>(opts);
        thread_ = std::thread([this] { server_->run(); });
    }

    void
    hello(const Fd &fd)
    {
        HelloRequest req;
        req.params.columns = 4;
        req.params.rows = 4;
        ArchiveWriter aw = beginMessage(MsgType::Hello);
        encodeHello(aw, req);
        sendMessage(fd, std::move(aw));
        auto rep = recvMessage(fd, 5000.0);
        ASSERT_TRUE(rep.has_value());
        ASSERT_EQ(rep->type, MsgType::HelloAck);
        (void)decodeHelloReply(rep->ar);
        rep->done();
    }

    /** Send an empty Step to @p target (one frame, no reply read). */
    void
    sendStep(const Fd &fd, Tick target)
    {
        StepRequest req;
        req.target = target;
        ArchiveWriter aw = beginMessage(MsgType::Step);
        encodeStep(aw, req);
        sendMessage(fd, std::move(aw));
    }

    AdvanceReply
    step(const Fd &fd, Tick target)
    {
        sendStep(fd, target);
        auto rep = recvMessage(fd, 5000.0);
        EXPECT_TRUE(rep.has_value());
        EXPECT_EQ(rep->type, MsgType::StepReply);
        std::uint8_t flags = 0;
        AdvanceReply ar = decodeStepReply(rep->ar, flags);
        rep->done();
        return ar;
    }

    std::string addr_;
    std::unique_ptr<NocServer> server_;
    std::thread thread_;
};

TEST_F(DrainWatchdogTest, DrainClosesSessionsAtFrameBoundaries)
{
    NocServerOptions opts;
    opts.drain_timeout_ms = 3000.0;
    startServer(opts);

    Fd fd = connectTo(addr_, 2000.0);
    hello(fd);
    // A complete request/reply exchange proves the session is live
    // and the previous reply went out whole.
    AdvanceReply rep = step(fd, 100);
    EXPECT_EQ(rep.cur_time, 100u);

    server_->drain();
    // run() returns on its own — no stop() — once the session has
    // wound down at its frame boundary.
    thread_.join();
    thread_ = std::thread{}; // joined; TearDown must not re-join

    // The client side of the wind-down is a clean EOF, which the
    // frame layer reports as "no message" — not a short-read or
    // torn-frame Transport error.
    auto msg = recvMessage(fd, 2000.0);
    EXPECT_FALSE(msg.has_value()) << "expected a clean EOF";
    server_.reset(); // already stopped; releases the address
}

TEST_F(DrainWatchdogTest, DrainLetsAnInFlightRequestFinish)
{
    NocServerOptions opts;
    opts.drain_timeout_ms = 5000.0;
    startServer(opts);

    Fd fd = connectTo(addr_, 2000.0);
    hello(fd);

    // Race drain() against an in-flight Step: whichever way the
    // timing falls, the reply must arrive either whole or not at all
    // (clean EOF) — a torn frame would surface as a Transport throw
    // from recvMessage.
    sendStep(fd, 5000);
    server_->drain();
    try {
        auto rep = recvMessage(fd, 5000.0);
        if (rep) {
            EXPECT_EQ(rep->type, MsgType::StepReply);
            std::uint8_t flags = 0;
            (void)decodeStepReply(rep->ar, flags);
            rep->done();
            // After the served request the drain closes cleanly.
            auto eof = recvMessage(fd, 5000.0);
            EXPECT_FALSE(eof.has_value());
        }
    } catch (const SimError &e) {
        FAIL() << "drain tore a frame: " << e.what();
    }
    thread_.join();
    thread_ = std::thread{};
    server_.reset();
}

TEST_F(DrainWatchdogTest, WatchdogReapsASessionThatStopsFraming)
{
    NocServerOptions opts;
    opts.session_timeout_ms = 150.0;
    startServer(opts);

    Fd hung = connectTo(addr_, 2000.0);
    hello(hung);
    // ... and now the client goes silent, mid-session, forever.

    // The watchdog (driven by the accept thread's timed slices) must
    // shut the session down within a few timeout periods.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server_->counters().sessions_reaped == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(server_->counters().sessions_reaped, 1u);

    // The reaped socket reads EOF (or a reset, on some stacks).
    try {
        auto msg = recvMessage(hung, 2000.0);
        EXPECT_FALSE(msg.has_value());
    } catch (const SimError &) {
        // A connection-reset Transport error is an acceptable read of
        // a shut-down socket too.
    }

    // The freed seat serves a fresh, *active* session, which the
    // watchdog leaves alone as long as it keeps completing frames.
    Fd fresh = connectTo(addr_, 2000.0);
    hello(fresh);
    for (Tick t = 100; t <= 400; t += 100) {
        AdvanceReply rep = step(fresh, t);
        EXPECT_EQ(rep.cur_time, t);
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    EXPECT_EQ(server_->counters().sessions_reaped, 1u)
        << "the watchdog reaped a session that was completing frames";
}

} // namespace
