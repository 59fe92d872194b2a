/**
 * @file
 * Session-level tests of the rasim-nocd server: the protocol lifecycle
 * over a real Unix-domain socket, error replies for malformed or
 * out-of-order requests, and the server-side checkpoint round trip.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ipc/frame.hh"
#include "ipc/nocd_server.hh"
#include "ipc/protocol.hh"
#include "noc/packet.hh"
#include "sim/serialize.hh"
#include "sim/sim_error.hh"

namespace
{

using namespace rasim;
using namespace rasim::ipc;

/** A running server on a per-test Unix socket + its service thread. */
class ServerFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        addr_ = "unix:/tmp/rasim-nocd-test-" +
                std::to_string(::getpid()) + ".sock";
        NocServerOptions opts;
        opts.address = addr_;
        server_ = std::make_unique<NocServer>(opts);
        thread_ = std::thread([this] { server_->run(); });
    }

    void
    TearDown() override
    {
        server_->stop();
        thread_.join();
    }

    Fd
    connect()
    {
        return connectTo(addr_, 2000.0);
    }

    /** One request/reply exchange. */
    Message
    call(const Fd &fd, ArchiveWriter &&aw)
    {
        sendMessage(fd, std::move(aw));
        auto msg = recvMessage(fd, 5000.0);
        EXPECT_TRUE(msg.has_value());
        return std::move(*msg);
    }

    HelloReply
    hello(const Fd &fd, const HelloRequest &req)
    {
        ArchiveWriter aw = beginMessage(MsgType::Hello);
        encodeHello(aw, req);
        Message rep = call(fd, std::move(aw));
        EXPECT_EQ(rep.type, MsgType::HelloAck);
        HelloReply hr = decodeHelloReply(rep.ar);
        rep.done();
        return hr;
    }

    /** One quantum exchange: inject @p pkts, advance to @p target. */
    AdvanceReply
    step(const Fd &fd, Tick target, std::vector<noc::PacketPtr> pkts = {})
    {
        StepRequest req;
        req.target = target;
        req.packets = std::move(pkts);
        ArchiveWriter aw = beginMessage(MsgType::Step);
        encodeStep(aw, req);
        Message rep = call(fd, std::move(aw));
        EXPECT_EQ(rep.type, MsgType::StepReply);
        std::uint8_t flags = 0;
        AdvanceReply ar = decodeStepReply(rep.ar, flags);
        rep.done();
        return ar;
    }

    std::string addr_;
    std::unique_ptr<NocServer> server_;
    std::thread thread_;
};

TEST_F(ServerFixture, HelloBuildsTheHostedNetwork)
{
    Fd fd = connect();
    HelloRequest req;
    req.params.columns = 4;
    req.params.rows = 4;
    HelloReply hr = hello(fd, req);
    EXPECT_EQ(hr.num_nodes, 16u);
    EXPECT_EQ(hr.cur_time, 0u);
}

TEST_F(ServerFixture, InjectAdvanceDelivers)
{
    Fd fd = connect();
    HelloRequest req;
    req.params.columns = 4;
    req.params.rows = 4;
    hello(fd, req);

    std::vector<noc::PacketPtr> pkts;
    pkts.push_back(
        noc::makePacket(1, 0, 15, noc::MsgClass::Request, 8, 5));
    pkts.push_back(
        noc::makePacket(2, 3, 12, noc::MsgClass::Response, 72, 7));

    AdvanceReply rep = step(fd, 5000, std::move(pkts));
    EXPECT_EQ(rep.cur_time, 5000u);
    EXPECT_TRUE(rep.idle);
    EXPECT_EQ(rep.injected, 2u);
    EXPECT_EQ(rep.delivered, 2u);
    EXPECT_EQ(rep.in_flight, 0u);
    ASSERT_EQ(rep.deliveries.size(), 2u);
    for (const auto &pkt : rep.deliveries)
        EXPECT_GT(pkt->latency(), 0u);
}

TEST_F(ServerFixture, RequestBeforeHelloIsATypedError)
{
    Fd fd = connect();
    StepRequest req;
    req.target = 100;
    ArchiveWriter aw = beginMessage(MsgType::Step);
    encodeStep(aw, req);
    Message rep = call(fd, std::move(aw));
    ASSERT_EQ(rep.type, MsgType::ErrorReply);
    try {
        throwDecodedError(rep.ar);
        FAIL() << "throwDecodedError returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("before Hello"),
                  std::string::npos);
    }
}

TEST_F(ServerFixture, ProtocolVersionMismatchIsRejected)
{
    // A newer peer, a v6 peer that may still send the retired
    // Ping/Pong pair, a v5 peer whose Hello still carries a kernel
    // string, and a v4 peer that would still send the retired
    // two-frame quantum exchange.
    for (std::uint32_t proto : {protocol_version + 1, 6u, 5u, 4u}) {
        Fd fd = connect();
        HelloRequest req;
        req.proto = proto;
        ArchiveWriter aw = beginMessage(MsgType::Hello);
        encodeHello(aw, req);
        Message rep = call(fd, std::move(aw));
        ASSERT_EQ(rep.type, MsgType::ErrorReply) << "proto " << proto;
        try {
            throwDecodedError(rep.ar);
            FAIL() << "throwDecodedError returned";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::Transport);
            EXPECT_NE(std::string(e.what()).find("version mismatch"),
                      std::string::npos)
                << "proto " << proto;
        }
    }
}

TEST_F(ServerFixture, UnknownModelIsRejected)
{
    Fd fd = connect();
    HelloRequest req;
    req.model = "quantum-foam";
    ArchiveWriter aw = beginMessage(MsgType::Hello);
    encodeHello(aw, req);
    Message rep = call(fd, std::move(aw));
    ASSERT_EQ(rep.type, MsgType::ErrorReply);
    try {
        throwDecodedError(rep.ar);
        FAIL() << "throwDecodedError returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("unknown hosted model"),
                  std::string::npos);
    }
}

TEST_F(ServerFixture, CheckpointRoundTripRewindsTheSession)
{
    Fd fd = connect();
    HelloRequest req;
    req.params.columns = 4;
    req.params.rows = 4;
    hello(fd, req);

    std::vector<noc::PacketPtr> pkts;
    pkts.push_back(
        noc::makePacket(1, 0, 15, noc::MsgClass::Request, 8, 5));
    AdvanceReply a1 = step(fd, 1000, pkts);
    EXPECT_EQ(a1.delivered, 1u);

    Message ck = call(fd, beginMessage(MsgType::CkptSave));
    ASSERT_EQ(ck.type, MsgType::CkptData);
    CkptReply saved = decodeCkptReply(ck.ar);
    ck.done();
    std::string image = saved.image;
    EXPECT_FALSE(image.empty());
    // The image travels with its attestation digest.
    EXPECT_EQ(saved.digest, crc64(image));

    // Diverge, then rewind with the image.
    std::vector<noc::PacketPtr> more;
    more.push_back(
        noc::makePacket(2, 1, 14, noc::MsgClass::Forward, 8, 1500));
    AdvanceReply a2 = step(fd, 3000, more);
    EXPECT_EQ(a2.delivered, 2u);

    ArchiveWriter load = beginMessage(MsgType::CkptLoad);
    load.putString(image);
    Message ack = call(fd, std::move(load));
    ASSERT_EQ(ack.type, MsgType::CkptLoadAck);
    CkptLoadReply lr = decodeCkptLoadReply(ack.ar);
    ack.done();
    EXPECT_EQ(lr.cur_time, 1000u);
    // Replica attestation: what the session now holds re-serializes
    // to exactly the image it was primed from.
    EXPECT_EQ(lr.digest, crc64(image));

    // The restored session replays the diverged tail identically.
    AdvanceReply a3 = step(fd, 3000, more);
    EXPECT_EQ(a3.delivered, a2.delivered);
    EXPECT_EQ(a3.injected, a2.injected);
}

TEST_F(ServerFixture, CorruptCheckpointImageIsRejected)
{
    Fd fd = connect();
    HelloRequest req;
    hello(fd, req);

    ArchiveWriter load = beginMessage(MsgType::CkptLoad);
    load.putString("definitely not an archive");
    Message rep = call(fd, std::move(load));
    ASSERT_EQ(rep.type, MsgType::ErrorReply);
    try {
        throwDecodedError(rep.ar);
        FAIL() << "throwDecodedError returned";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Transport);
        EXPECT_NE(std::string(e.what()).find("corrupt checkpoint"),
                  std::string::npos);
    }
}

TEST_F(ServerFixture, AttestedStepCarriesAReproducibleDigest)
{
    Fd fd = connect();
    HelloRequest hreq;
    hreq.params.columns = 4;
    hreq.params.rows = 4;
    hello(fd, hreq);

    auto attestedStep = [&](Tick target) {
        StepRequest req;
        req.target = target;
        req.attest = true;
        ArchiveWriter aw = beginMessage(MsgType::Step);
        encodeStep(aw, req);
        Message rep = call(fd, std::move(aw));
        EXPECT_EQ(rep.type, MsgType::StepReply);
        std::uint8_t flags = 0;
        std::uint64_t digest = 0;
        decodeStepReply(rep.ar, flags, &digest);
        rep.done();
        EXPECT_TRUE(flags & step_flag_attested);
        return digest;
    };

    std::uint64_t d1 = attestedStep(1000);
    EXPECT_NE(d1, 0u);
    // An idle re-attest at the same tick must reproduce the digest
    // (nothing moved), and it must equal the checkpoint image's own
    // digest — they attest the same serialized state.
    std::uint64_t d2 = attestedStep(1000);
    EXPECT_EQ(d1, d2);
    Message ck = call(fd, beginMessage(MsgType::CkptSave));
    ASSERT_EQ(ck.type, MsgType::CkptData);
    CkptReply saved = decodeCkptReply(ck.ar);
    ck.done();
    EXPECT_EQ(saved.digest, d1);
    // Advancing the clock changes the serialized state, so the digest
    // must move too.
    std::uint64_t d3 = attestedStep(2000);
    EXPECT_NE(d3, d1);
}

TEST_F(ServerFixture, ServerSurvivesAVanishedClient)
{
    {
        Fd fd = connect();
        HelloRequest req;
        hello(fd, req);
        // fd drops here, mid-session.
    }
    // A fresh client gets a fresh, working session.
    Fd fd = connect();
    HelloRequest req;
    req.params.columns = 4;
    req.params.rows = 4;
    HelloReply hr = hello(fd, req);
    EXPECT_EQ(hr.num_nodes, 16u);
    AdvanceReply rep = step(fd, 100);
    EXPECT_EQ(rep.cur_time, 100u);
}

/** Run the rasim-nocd binary with @p args; returns its exit status
 *  (-1 when it had to be killed) and its combined stdout/stderr. */
std::pair<int, std::string>
runNocd(const std::vector<std::string> &args)
{
    int out[2];
    EXPECT_EQ(::pipe(out), 0);
    pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(out[1], STDOUT_FILENO);
        ::dup2(out[1], STDERR_FILENO);
        ::close(out[0]);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(RASIM_NOCD_PATH));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        ::execv(RASIM_NOCD_PATH, argv.data());
        ::_exit(127);
    }
    ::close(out[1]);
    // A binary that accepted its arguments would serve forever: give
    // it a bounded window, then kill it.
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 500 && !exited; ++i) {
        exited = ::waitpid(pid, &status, WNOHANG) == pid;
        if (!exited)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
    }
    std::string text;
    char buf[512];
    for (ssize_t n; (n = ::read(out[0], buf, sizeof(buf))) > 0;)
        text.append(buf, static_cast<std::size_t>(n));
    ::close(out[0]);
    return {exited && WIFEXITED(status) ? WEXITSTATUS(status) : -1,
            text};
}

// Every flag is a spelling of a server.* key, validated by the one
// NocServerOptions::fromConfig parser: a bad value in either spelling,
// or a retired flag, exits 2 before the daemon listens.
TEST(NocdFlags, BadValuesAndRetiredFlagsExitBeforeListening)
{
    const std::string path =
        "/tmp/rasim-nocd-flags-" + std::to_string(::getpid()) + ".sock";
    const std::string addr = "unix:" + path;
    const std::vector<std::vector<std::string>> cases = {
        {addr, "--drain-timeout", "-5"},
        {addr, "--session-timeout-ms", "-1"},
        {addr, "--io-timeout-ms", "abc"},
        {addr, "--max-sessions", "abc"},
        {addr, "--quota-frames", "-3"},
        {"server.drain_timeout_ms=-5", addr},
        {addr, "--no-speculate"},
        {addr, "--once"},
        {addr, "--max-active", "2"},
        {addr, "--drain-timeout"},
    };
    for (const auto &args : cases) {
        std::string what;
        for (const std::string &a : args)
            what += a + " ";
        auto [code, out] = runNocd(args);
        EXPECT_EQ(code, 2) << what << "\n" << out;
        EXPECT_EQ(out.find("listening"), std::string::npos) << what;
        EXPECT_NE(::access(path.c_str(), F_OK), 0)
            << what << ": left a socket behind";
        ::unlink(path.c_str());
    }
}

} // namespace
