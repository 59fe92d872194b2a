/**
 * @file
 * Edge-case tests for the quantum-RPC framing and payload codecs:
 * every malformed input off the wire must surface as a typed SimError
 * — no crash, no hang — because that is the contract the co-simulation
 * health machinery relies on to quarantine a sick remote backend.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipc/frame.hh"
#include "ipc/protocol.hh"
#include "sim/serialize.hh"

namespace
{

using namespace rasim;
using namespace rasim::ipc;

/** A connected AF_UNIX stream pair wrapped in RAII fds. */
std::pair<Fd, Fd>
makePair()
{
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    return {Fd(sv[0]), Fd(sv[1])};
}

/** Write raw bytes straight to the socket, bypassing the framing. */
void
rawWrite(const Fd &fd, const void *data, std::size_t len)
{
    ASSERT_EQ(::send(fd.get(), data, len, 0),
              static_cast<ssize_t>(len));
}

/** Seal a beginMessage() writer into the frame payload it would put on
 *  the wire (what sendMessage does before prefixing the header). */
std::string
sealPayload(ArchiveWriter &&aw)
{
    aw.endSection();
    return aw.finish();
}

/** The 12-byte frame header for a payload of @p len bytes. */
std::string
frameHeader(std::uint64_t len)
{
    std::string h(frame_magic, sizeof(frame_magic));
    h.append(reinterpret_cast<const char *>(&len), sizeof(len));
    return h;
}

TEST(Frame, RoundTrip)
{
    auto [a, b] = makePair();
    StepRequest req;
    req.target = 4096;
    req.attest = true;
    ArchiveWriter aw = beginMessage(MsgType::Step);
    encodeStep(aw, req);
    sendMessage(a, std::move(aw));

    auto msg = recvMessage(b, 1000.0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->type, MsgType::Step);
    StepRequest got = decodeStep(msg->ar);
    msg->done();
    EXPECT_EQ(got.target, 4096u);
    EXPECT_TRUE(got.attest);
    EXPECT_TRUE(got.packets.empty());
}

TEST(Frame, CleanEofAtBoundaryIsNotAnError)
{
    auto [a, b] = makePair();
    a.reset(); // peer closes between frames
    auto msg = recvMessage(b, 1000.0);
    EXPECT_FALSE(msg.has_value());
}

TEST(Frame, ShortReadInsideHeader)
{
    auto [a, b] = makePair();
    rawWrite(a, frame_magic, 3); // 3 of 12 header bytes, then gone
    a.reset();
    EXPECT_SIM_ERROR(recvMessage(b, 1000.0), "short read");
}

TEST(Frame, BadMagicDesynchronised)
{
    auto [a, b] = makePair();
    std::string junk = "JUNKJUNKJUNK"; // 12 bytes, wrong magic
    rawWrite(a, junk.data(), junk.size());
    EXPECT_SIM_ERROR(recvMessage(b, 1000.0), "bad frame magic");
}

TEST(Frame, OversizedPayloadRejected)
{
    auto [a, b] = makePair();
    std::string h = frameHeader(max_frame_bytes + 1);
    rawWrite(a, h.data(), h.size());
    EXPECT_SIM_ERROR(recvMessage(b, 1000.0), "oversized frame");
}

TEST(Frame, TornFramePeerDiedMidPayload)
{
    auto [a, b] = makePair();
    std::string h = frameHeader(100);
    rawWrite(a, h.data(), h.size());
    rawWrite(a, "0123456789", 10); // 10 of 100 payload bytes
    a.reset();
    EXPECT_SIM_ERROR(recvMessage(b, 1000.0), "torn frame");
}

TEST(Frame, CrcFailureDetected)
{
    auto [a, b] = makePair();
    ArchiveWriter aw = beginMessage(MsgType::Bye);
    aw.putString("payload worth protecting");
    std::string payload = sealPayload(std::move(aw));
    payload[payload.size() / 2] ^= 0x20; // one flipped body bit

    std::string h = frameHeader(payload.size());
    rawWrite(a, h.data(), h.size());
    rawWrite(a, payload.data(), payload.size());
    EXPECT_SIM_ERROR(recvMessage(b, 1000.0), "CRC mismatch");
}

TEST(Frame, ArchiveVersionMismatchDetected)
{
    auto [a, b] = makePair();
    ArchiveWriter aw = beginMessage(MsgType::Bye);
    std::string payload = sealPayload(std::move(aw));

    // Patch the archive format version (right after the 8-byte magic)
    // and re-seal the CRC trailer so only the version is wrong.
    std::uint32_t bogus = 99;
    std::memcpy(payload.data() + 8, &bogus, sizeof(bogus));
    std::uint32_t crc =
        crc32(payload.data(), payload.size() - sizeof(crc));
    std::memcpy(payload.data() + payload.size() - sizeof(crc), &crc,
                sizeof(crc));

    std::string h = frameHeader(payload.size());
    rawWrite(a, h.data(), h.size());
    rawWrite(a, payload.data(), payload.size());
    EXPECT_SIM_ERROR(recvMessage(b, 1000.0),
                     "unsupported archive version");
}

TEST(Frame, SilentPeerHitsDeadline)
{
    auto [a, b] = makePair();
    auto start = std::chrono::steady_clock::now();
    EXPECT_SIM_ERROR(recvMessage(b, 30.0), "timed out");
    double waited = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    EXPECT_LT(waited, 5000.0); // bounded, not a hang
}

TEST(Frame, AbortFlagStopsReceive)
{
    auto [a, b] = makePair();
    std::atomic<bool> abort{false};
    std::thread poker([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        abort.store(true);
    });
    EXPECT_SIM_ERROR(recvMessage(b, 0.0, &abort), "aborted");
    poker.join();
}

TEST(Frame, OneMillisecondDeadlineOnSilentPeerTimesOut)
{
    // A deadline a few spin budgets long still expires as a Timeout,
    // promptly, with the spin in front of the blocking wait.
    auto [a, b] = makePair();
    auto start = std::chrono::steady_clock::now();
    EXPECT_SIM_ERROR(recvMessage(b, 1.0), "timed out");
    double waited = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    EXPECT_LT(waited, 500.0);
}

TEST(Frame, AbortInsideSpinWindowStopsReceive)
{
    auto [a, b] = makePair();
    std::atomic<bool> abort{false};
    std::atomic<bool> entered{false};
    std::thread poker([&] {
        // Raise the abort as soon as the receiver is on its way in, so
        // it lands while the receive is still spinning.
        while (!entered.load())
            std::this_thread::yield();
        abort.store(true);
    });
    entered.store(true);
    EXPECT_SIM_ERROR(recvMessage(b, 0.0, &abort), "aborted");
    poker.join();
}

/** Step frame bytes exactly as sendMessage puts them on the wire. */
std::string
stepFrame(Tick target)
{
    StepRequest req;
    req.target = target;
    ArchiveWriter aw = beginMessage(MsgType::Step);
    encodeStep(aw, req);
    std::string payload = sealPayload(std::move(aw));
    return frameHeader(payload.size()) + payload;
}

TEST(Frame, PayloadSplitPastTheSpinBudgetArrivesWhole)
{
    constexpr int gap_ms = 2;
    static_assert(recv_spin_us < gap_ms * 1000.0,
                  "the gap must outlast the receive spin");
    auto [a, b] = makePair();
    std::string frame = stepFrame(777);
    const std::size_t first = 12 + 5; // header and part of the payload
    std::thread writer([&, fd = a.get()] {
        ASSERT_EQ(::send(fd, frame.data(), first, 0),
                  static_cast<ssize_t>(first));
        std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
        ASSERT_EQ(::send(fd, frame.data() + first, frame.size() - first,
                         0),
                  static_cast<ssize_t>(frame.size() - first));
    });
    auto msg = recvMessage(b, 5000.0);
    writer.join();
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::Step);
    EXPECT_EQ(decodeStep(msg->ar).target, 777u);
    msg->done();
}

TEST(Frame, BackToBackFramesArriveAsTwoMessagesInOrder)
{
    auto [a, b] = makePair();
    std::string both = stepFrame(1) + stepFrame(2);
    rawWrite(a, both.data(), both.size());
    for (Tick want : {Tick(1), Tick(2)}) {
        auto msg = recvMessage(b, 1000.0);
        ASSERT_TRUE(msg.has_value());
        ASSERT_EQ(msg->type, MsgType::Step);
        EXPECT_EQ(decodeStep(msg->ar).target, want);
        msg->done();
    }
    a.reset();
    EXPECT_FALSE(recvMessage(b, 1000.0).has_value());
}

TEST(Protocol, HelloRoundTrip)
{
    auto [a, b] = makePair();
    HelloRequest req;
    req.model = "deflection";
    req.params.columns = 6;
    req.params.rows = 5;
    req.engine_workers = 4;
    req.start_tick = 12345;

    ArchiveWriter aw = beginMessage(MsgType::Hello);
    encodeHello(aw, req);
    sendMessage(a, std::move(aw));

    auto msg = recvMessage(b, 1000.0);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::Hello);
    HelloRequest got = decodeHello(msg->ar);
    msg->done();
    EXPECT_EQ(got.proto, protocol_version);
    EXPECT_EQ(got.model, "deflection");
    EXPECT_EQ(got.params.columns, 6);
    EXPECT_EQ(got.params.rows, 5);
    EXPECT_EQ(got.engine_workers, 4);
    EXPECT_EQ(got.start_tick, 12345u);
}

TEST(Protocol, PacketBatchRoundTrip)
{
    auto [a, b] = makePair();
    std::vector<noc::PacketPtr> pkts;
    pkts.push_back(
        noc::makePacket(7, 1, 14, noc::MsgClass::Request, 8, 100));
    pkts.push_back(
        noc::makePacket(8, 3, 0, noc::MsgClass::Response, 72, 105));

    StepRequest req;
    req.target = 200;
    req.packets = pkts;
    ArchiveWriter aw = beginMessage(MsgType::Step);
    encodeStep(aw, req);
    sendMessage(a, std::move(aw));

    auto msg = recvMessage(b, 1000.0);
    ASSERT_TRUE(msg.has_value());
    std::vector<noc::PacketPtr> got = decodeStep(msg->ar).packets;
    msg->done();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0]->id, 7u);
    EXPECT_EQ(got[0]->dst, 14u);
    EXPECT_EQ(got[1]->cls, noc::MsgClass::Response);
    EXPECT_EQ(got[1]->size_bytes, 72u);
    EXPECT_EQ(got[1]->inject_tick, 105u);
}

TEST(Protocol, ErrorReplyRethrowsOriginalKind)
{
    auto [a, b] = makePair();
    ArchiveWriter aw = beginMessage(MsgType::ErrorReply);
    encodeError(aw, ErrorKind::Deadlock, "router wedged at tick 42");
    sendMessage(a, std::move(aw));

    auto msg = recvMessage(b, 1000.0);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::ErrorReply);
    try {
        throwDecodedError(msg->ar);
        FAIL() << "throwDecodedError returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Deadlock);
        EXPECT_NE(std::string(e.what()).find("router wedged"),
                  std::string::npos);
    }
}

TEST(Protocol, StatsReplyRoundTrip)
{
    auto [a, b] = makePair();
    std::vector<StatRow> rows = {
        {"net.packets_delivered", "", 600.0},
        {"net.latency_vnet0", "samples", 200.0},
    };
    ArchiveWriter aw = beginMessage(MsgType::StatsData);
    encodeStatsReply(aw, rows);
    sendMessage(a, std::move(aw));

    auto msg = recvMessage(b, 1000.0);
    ASSERT_TRUE(msg.has_value());
    std::vector<StatRow> got = decodeStatsReply(msg->ar);
    msg->done();
    EXPECT_EQ(got, rows);
}

} // namespace
