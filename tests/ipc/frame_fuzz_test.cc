/**
 * @file
 * Seeded fuzz suite for the quantum-RPC frame decoder and payload
 * codecs. The contract under test: NO byte sequence off the wire may
 * crash, hang, or be silently accepted as something it is not — every
 * malformed input surfaces as a typed SimError, because that is what
 * lets the co-simulation health machinery quarantine a sick peer
 * instead of dying with it.
 *
 * Two layers:
 *
 *  - a deterministic mutation fuzzer (truncate, bit-flip, splice,
 *    forged length, duplicated length prefix, and CRC-corrected body
 *    corruption that reaches the post-checksum decode paths) driven
 *    over a corpus containing one valid frame of every message type;
 *
 *  - targeted "liar frames" that are CRC-valid but structurally
 *    dishonest (wrong body for the type, unknown type, truncated
 *    body, trailing bytes, forged element counts, out-of-range error
 *    kinds), each pinned to its expected typed refusal.
 *
 * Everything is seeded and deterministic, so a failure reproduces.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <sys/socket.h>

#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "abstractnet/latency_table.hh"
#include "ipc/frame.hh"
#include "ipc/protocol.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "sim/logging.hh"
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

noc::NocParams
smallMesh()
{
    noc::NocParams p;
    p.columns = 4;
    p.rows = 4;
    return p;
}

abstractnet::LatencyTable
protoTable()
{
    noc::NocParams p = smallMesh();
    return abstractnet::LatencyTable(
        p, p.columns + p.rows + 2, 0.05,
        abstractnet::LatencyTable::Granularity::Distance, p.numNodes());
}

std::vector<noc::PacketPtr>
somePackets()
{
    std::vector<noc::PacketPtr> pkts;
    pkts.push_back(
        noc::makePacket(1, 0, 15, noc::MsgClass::Request, 8, 100));
    pkts.push_back(
        noc::makePacket(2, 5, 10, noc::MsgClass::Response, 72, 104));
    pkts.push_back(
        noc::makePacket(3, 9, 3, noc::MsgClass::Forward, 16, 110));
    return pkts;
}

/** Seal a beginMessage() writer into the complete wire bytes that
 *  sendMessage() would put on the socket: frame header + payload. */
std::string
sealFrame(ArchiveWriter &&aw)
{
    aw.endSection();
    std::string payload = aw.finish();
    std::uint64_t len = payload.size();
    std::string frame(frame_magic, sizeof(frame_magic));
    frame.append(reinterpret_cast<const char *>(&len), sizeof(len));
    return frame + payload;
}

/** One valid wire frame (header + payload) per message type: the
 *  fuzzer's corpus. Every decoder is reachable from here. */
std::vector<std::string>
buildCorpus()
{
    std::vector<std::string> corpus;
    auto add = [&](ArchiveWriter &&aw) {
        corpus.push_back(sealFrame(std::move(aw)));
    };

    {
        HelloRequest req;
        req.model = "cycle";
        req.params = smallMesh();
        req.start_tick = 4096;
        ArchiveWriter aw = beginMessage(MsgType::Hello);
        encodeHello(aw, req);
        add(std::move(aw));
    }
    {
        StepRequest req;
        req.target = 12288;
        req.attest = true;
        req.packets = somePackets();
        ArchiveWriter aw = beginMessage(MsgType::Step);
        encodeStep(aw, req);
        add(std::move(aw));
    }
    add(beginMessage(MsgType::TableGet));
    add(beginMessage(MsgType::StatsGet));
    add(beginMessage(MsgType::CkptSave));
    {
        ArchiveWriter aw = beginMessage(MsgType::CkptLoad);
        aw.putString("opaque checkpoint image bytes");
        add(std::move(aw));
    }
    add(beginMessage(MsgType::Bye));
    {
        HelloReply rep;
        rep.num_nodes = 16;
        rep.cur_time = 4096;
        ArchiveWriter aw = beginMessage(MsgType::HelloAck);
        encodeHelloReply(aw, rep);
        add(std::move(aw));
    }
    {
        AdvanceReply rep;
        rep.cur_time = 8192;
        rep.idle = false;
        rep.injected = 3;
        rep.delivered = 3;
        rep.deliveries = somePackets();
        ArchiveWriter aw = beginMessage(MsgType::StepReply);
        encodeStepReply(aw, rep, step_flag_attested, 0x5eed);
        add(std::move(aw));
    }
    {
        ArchiveWriter aw = beginMessage(MsgType::TableData);
        protoTable().saveBinary(aw);
        add(std::move(aw));
    }
    {
        std::vector<StatRow> rows = {
            {"net.packets_delivered", "", 600.0},
            {"net.latency_vnet0", "samples", 200.0},
        };
        ArchiveWriter aw = beginMessage(MsgType::StatsData);
        encodeStatsReply(aw, rows);
        add(std::move(aw));
    }
    {
        ArchiveWriter aw = beginMessage(MsgType::CkptData);
        aw.putString("opaque checkpoint image bytes");
        add(std::move(aw));
    }
    {
        ArchiveWriter aw = beginMessage(MsgType::CkptLoadAck);
        aw.putU64(8192);
        add(std::move(aw));
    }
    {
        ArchiveWriter aw = beginMessage(MsgType::ErrorReply);
        encodeError(aw, ErrorKind::Deadlock, "synthetic trip");
        add(std::move(aw));
    }
    return corpus;
}

/** Consume a received message exactly the way the real endpoints
 *  would, so the fuzzer exercises production decode paths. */
void
decodeAs(Message &msg, const abstractnet::LatencyTable &proto)
{
    switch (msg.type) {
      case MsgType::Hello:
        decodeHello(msg.ar);
        break;
      case MsgType::Step:
        decodeStep(msg.ar);
        break;
      case MsgType::CkptLoad:
      case MsgType::CkptData:
        decodeBlob(msg.ar);
        break;
      case MsgType::HelloAck:
        decodeHelloReply(msg.ar);
        break;
      case MsgType::StepReply: {
        std::uint8_t flags = 0;
        decodeStepReply(msg.ar, flags);
        break;
      }
      case MsgType::TableData: {
        // The client guards table restoration the same way.
        abstractnet::LatencyTable table = proto;
        logging::ThrowOnError guard;
        table.restoreBinary(msg.ar);
        break;
      }
      case MsgType::StatsData:
        decodeStatsReply(msg.ar);
        break;
      case MsgType::CkptLoadAck:
        decodeTick(msg.ar);
        break;
      case MsgType::ErrorReply:
        // Throws the decoded error by contract; a clean decode is a
        // typed SimError too, so nothing to distinguish here.
        throwDecodedError(msg.ar);
        break;
      default:
        // TableGet / StatsGet / CkptSave / Bye: empty payloads.
        break;
    }
    msg.done();
}

enum class Outcome
{
    Accepted,   ///< decoded as a well-formed message
    TypedError, ///< refused with a SimError (the contract)
    CleanEof    ///< mutation emptied the stream before a frame began
};

/** Push raw bytes through a socket and run the full receive+decode
 *  path. Anything but the three outcomes (crash, panic, hang) fails
 *  the test by failing the process. */
Outcome
feed(const std::string &bytes, const abstractnet::LatencyTable &proto)
{
    auto [w, r] = makePair();
    if (!bytes.empty())
        sendAll(w, bytes.data(), bytes.size());
    w.reset(); // EOF after the mutated bytes: no mutation may hang
    try {
        auto msg = recvMessage(r, 5000.0);
        if (!msg)
            return Outcome::CleanEof;
        decodeAs(*msg, proto);
        return Outcome::Accepted;
    } catch (const SimError &) {
        return Outcome::TypedError;
    }
}

/** Re-seal the archive CRC trailer after corrupting payload bytes, so
 *  the mutation survives the checksum and reaches the decoders. */
void
resealCrc(std::string &frame)
{
    constexpr std::size_t header = 12;
    std::uint32_t crc = crc32(frame.data() + header,
                              frame.size() - header - sizeof(crc));
    std::memcpy(frame.data() + frame.size() - sizeof(crc), &crc,
                sizeof(crc));
}

std::string
mutate(const std::string &frame, const std::string &other,
       std::mt19937 &rng)
{
    std::string m = frame;
    switch (rng() % 6) {
      case 0: // truncate anywhere (header, length field, payload)
        m.resize(rng() % m.size());
        break;
      case 1: { // flip 1..8 random bits
        int flips = 1 + static_cast<int>(rng() % 8);
        for (int i = 0; i < flips; ++i)
            m[rng() % m.size()] ^=
                static_cast<char>(1u << (rng() % 8));
        break;
      }
      case 2: { // splice: prefix of one frame, suffix of another
        std::size_t cut_a = rng() % (m.size() + 1);
        std::size_t cut_b = rng() % (other.size() + 1);
        m = m.substr(0, cut_a) + other.substr(cut_b);
        break;
      }
      case 3: { // forge the length field (oversize or lying)
        std::uint64_t len = (rng() % 2)
                                ? max_frame_bytes + 1 + rng() % 4096
                                : rng() % (2 * m.size() + 16);
        std::memcpy(m.data() + 4, &len, sizeof(len));
        break;
      }
      case 4: { // duplicate the length prefix inside the payload
        m.insert(12, m.substr(4, 8));
        break;
      }
      case 5: { // CRC-corrected body corruption: reach past the
                // checksum into the structural decoders
        constexpr std::size_t skip = 12 + 12; // frame + archive header
        if (m.size() > skip + 8) {
            int n = 1 + static_cast<int>(rng() % 4);
            for (int i = 0; i < n; ++i) {
                std::size_t p = skip + rng() % (m.size() - skip - 4);
                m[p] ^= static_cast<char>(1 + rng() % 255);
            }
            resealCrc(m);
        }
        break;
      }
    }
    return m;
}

TEST(FrameFuzz, UnmutatedCorpusIsAccepted)
{
    abstractnet::LatencyTable proto = protoTable();
    for (const std::string &frame : buildCorpus()) {
        Outcome out = feed(frame, proto);
        // ErrorReply decodes into a thrown SimError by design; every
        // other valid frame must be accepted as-is.
        EXPECT_TRUE(out == Outcome::Accepted ||
                    out == Outcome::TypedError);
        EXPECT_NE(out, Outcome::CleanEof);
    }
}

TEST(FrameFuzz, SeededMutationsNeverCrashHangOrMisdecode)
{
    auto corpus = buildCorpus();
    abstractnet::LatencyTable proto = protoTable();
    std::mt19937 rng(0xf0220ed1u);

    const int iterations = 1500;
    int accepted = 0, typed = 0, eof = 0;
    for (int i = 0; i < iterations; ++i) {
        const std::string &base = corpus[rng() % corpus.size()];
        const std::string &other = corpus[rng() % corpus.size()];
        switch (feed(mutate(base, other, rng), proto)) {
          case Outcome::Accepted:
            ++accepted;
            break;
          case Outcome::TypedError:
            ++typed;
            break;
          case Outcome::CleanEof:
            ++eof;
            break;
        }
    }
    // Reaching this line without a crash, panic, or hang is the real
    // assertion; the mix is a sanity check that the mutators actually
    // exercised the refusal paths (and that some mutations — benign
    // flips in slack bytes, CRC-corrected ones that stayed legal —
    // still decode).
    EXPECT_EQ(accepted + typed + eof, iterations);
    EXPECT_GT(typed, iterations / 4);
}

TEST(FrameFuzz, LyingTypeWithForeignBodyIsRefused)
{
    // CRC-valid frame claiming to be Hello but carrying a bare tick as
    // its body: the structural decoder must refuse it as Transport.
    ArchiveWriter aw = beginMessage(MsgType::Hello);
    aw.putU64(4096);
    std::string frame = sealFrame(std::move(aw));

    auto [w, r] = makePair();
    sendAll(w, frame.data(), frame.size());
    auto msg = recvMessage(r, 1000.0);
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MsgType::Hello);
    try {
        decodeHello(msg->ar);
        FAIL() << "foreign body decoded as a Hello";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("malformed Hello"),
                  std::string::npos);
    }
}

TEST(FrameFuzz, UnknownMessageTypeIsRefusedAtReceive)
{
    // A type value no build speaks — or one an old peer still sends
    // (2, 3 and 103: the v4 two-frame quantum exchange; 10 and 109:
    // the v6 Ping/Pong pair) — is refused before any payload decode
    // runs, with a hint that the peer may speak another protocol.
    for (std::uint32_t raw : {57u, 2u, 3u, 103u, 10u, 109u}) {
        ArchiveWriter aw;
        aw.beginSection("msg");
        aw.putU32(raw);
        aw.putU64(4096);
        std::string frame = sealFrame(std::move(aw));

        auto [w, r] = makePair();
        sendAll(w, frame.data(), frame.size());
        try {
            (void)recvMessage(r, 1000.0);
            FAIL() << "type " << raw << " accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Transport) << "type " << raw;
            EXPECT_NE(std::string(e.what()).find("unknown message type"),
                      std::string::npos)
                << "type " << raw << ": " << e.what();
        }
    }
}

TEST(FrameFuzz, ForgedPacketCountRefusedBeforeAllocation)
{
    // A count no legal frame could carry must be refused up front —
    // not answered with a multi-gigabyte reserve (bad_alloc/OOM).
    ArchiveWriter aw = beginMessage(MsgType::Step);
    aw.putU64(4096); // target
    aw.putBool(false); // attest
    aw.putU64(std::uint64_t(1) << 40);
    std::string frame = sealFrame(std::move(aw));

    auto [w, r] = makePair();
    sendAll(w, frame.data(), frame.size());
    auto msg = recvMessage(r, 1000.0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_SIM_ERROR(decodeStep(msg->ar), "implausible packet count");
}

TEST(FrameFuzz, ForgedStatRowCountRefusedBeforeAllocation)
{
    ArchiveWriter aw = beginMessage(MsgType::StatsData);
    aw.putU64(std::uint64_t(1) << 40);
    std::string frame = sealFrame(std::move(aw));

    auto [w, r] = makePair();
    sendAll(w, frame.data(), frame.size());
    auto msg = recvMessage(r, 1000.0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_SIM_ERROR(decodeStatsReply(msg->ar),
                     "implausible stat row count");
}

TEST(FrameFuzz, TrailingBytesRefusedByDone)
{
    // A structurally valid body followed by bytes this build does not
    // understand: silent acceptance would desynchronise the peers, so
    // done() must refuse.
    StepRequest req;
    req.target = 4096;
    ArchiveWriter aw = beginMessage(MsgType::Step);
    encodeStep(aw, req);
    aw.putU32(0xdead);
    std::string frame = sealFrame(std::move(aw));

    auto [w, r] = makePair();
    sendAll(w, frame.data(), frame.size());
    auto msg = recvMessage(r, 1000.0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(decodeStep(msg->ar).target, 4096u);
    EXPECT_SIM_ERROR(msg->done(), "malformed message payload");
}

TEST(FrameFuzz, TruncatedBodyIsRefused)
{
    // Half a Hello: the decoder runs out of fields mid-struct.
    ArchiveWriter aw = beginMessage(MsgType::Hello);
    aw.putU32(protocol_version);
    aw.putString("cycle");
    std::string frame = sealFrame(std::move(aw));

    auto [w, r] = makePair();
    sendAll(w, frame.data(), frame.size());
    auto msg = recvMessage(r, 1000.0);
    ASSERT_TRUE(msg.has_value());
    EXPECT_SIM_ERROR(decodeHello(msg->ar), "malformed Hello");
}

TEST(FrameFuzz, OutOfRangeErrorKindClampsToTransport)
{
    // A peer reporting an ErrorKind this build cannot name must fold
    // to Transport, not be cast into an out-of-range enum.
    ArchiveWriter aw = beginMessage(MsgType::ErrorReply);
    encodeError(aw, static_cast<ErrorKind>(99), "from the future");
    std::string frame = sealFrame(std::move(aw));

    auto [w, r] = makePair();
    sendAll(w, frame.data(), frame.size());
    auto msg = recvMessage(r, 1000.0);
    ASSERT_TRUE(msg.has_value());
    try {
        throwDecodedError(msg->ar);
        FAIL() << "throwDecodedError returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("from the future"),
                  std::string::npos);
    }
}

} // namespace
