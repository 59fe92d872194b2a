#include "ipc/frame.hh"

#include <cstring>

#include "sim/logging.hh"
#include "sim/sim_error.hh"

namespace rasim
{
namespace ipc
{

const char *
toString(MsgType type)
{
    switch (type) {
      case MsgType::Hello:
        return "Hello";
      case MsgType::StatsGet:
        return "StatsGet";
      case MsgType::CkptSave:
        return "CkptSave";
      case MsgType::CkptLoad:
        return "CkptLoad";
      case MsgType::Bye:
        return "Bye";
      case MsgType::Step:
        return "Step";
      case MsgType::HelloAck:
        return "HelloAck";
      case MsgType::StatsData:
        return "StatsData";
      case MsgType::CkptData:
        return "CkptData";
      case MsgType::CkptLoadAck:
        return "CkptLoadAck";
      case MsgType::StepReply:
        return "StepReply";
      case MsgType::ErrorReply:
        return "ErrorReply";
    }
    return "unknown";
}

bool
knownMsgType(std::uint32_t raw)
{
    switch (static_cast<MsgType>(raw)) {
      case MsgType::Hello:
      case MsgType::StatsGet:
      case MsgType::CkptSave:
      case MsgType::CkptLoad:
      case MsgType::Bye:
      case MsgType::Step:
      case MsgType::HelloAck:
      case MsgType::StatsData:
      case MsgType::CkptData:
      case MsgType::CkptLoadAck:
      case MsgType::StepReply:
      case MsgType::ErrorReply:
        return true;
    }
    return false;
}

void
Message::done()
{
    try {
        logging::ThrowOnError guard;
        ar.endSection();
    } catch (const SimError &err) {
        throw SimError(ErrorKind::Transport,
                       std::string("malformed message payload: ") +
                           err.what());
    }
}

ArchiveWriter
beginMessage(MsgType type)
{
    ArchiveWriter aw;
    aw.beginSection("msg");
    aw.putU32(static_cast<std::uint32_t>(type));
    return aw;
}

void
sendMessage(ByteChannel &ch, ArchiveWriter &&aw)
{
    // One contiguous buffer, one send: half the syscalls of the
    // header-then-payload scheme, and no torn-header window.
    aw.endSection();
    std::string payload = aw.finish();
    std::string frame;
    frame.reserve(12 + payload.size());
    frame.append(frame_magic, sizeof(frame_magic));
    std::uint64_t len = payload.size();
    frame.append(reinterpret_cast<const char *>(&len), sizeof(len));
    frame.append(payload);
    ch.send(frame.data(), frame.size());
}

void
sendMessage(const Fd &fd, ArchiveWriter &&aw)
{
    FdChannel ch(&fd);
    sendMessage(ch, std::move(aw));
}

std::optional<Message>
recvMessage(ByteChannel &ch, double timeout_ms,
            const std::atomic<bool> *abort)
{
    char header[12];
    std::size_t got =
        ch.recv(header, sizeof(header), timeout_ms, abort);
    if (got == 0)
        return std::nullopt; // clean EOF at a frame boundary
    if (got < sizeof(header)) {
        throw SimError(ErrorKind::Transport,
                       "short read: peer closed inside the frame "
                       "header (" +
                           std::to_string(got) + " of 12 bytes)");
    }
    if (std::memcmp(header, frame_magic, sizeof(frame_magic)) != 0) {
        throw SimError(ErrorKind::Transport,
                       "bad frame magic (stream desynchronised or not "
                       "a rasim-nocd peer)");
    }
    std::uint64_t len = 0;
    std::memcpy(&len, header + sizeof(frame_magic), sizeof(len));
    if (len > max_frame_bytes) {
        throw SimError(ErrorKind::Transport,
                       "oversized frame rejected: declared payload of " +
                           std::to_string(len) + " bytes exceeds " +
                           std::to_string(max_frame_bytes));
    }
    std::string payload(len, '\0');
    got = len == 0 ? 0
                   : ch.recv(payload.data(), len, timeout_ms, abort);
    if (got < len) {
        throw SimError(ErrorKind::Transport,
                       "torn frame: peer closed after " +
                           std::to_string(got) + " of " +
                           std::to_string(len) + " payload bytes");
    }
    ArchiveReader ar(std::move(payload));
    if (!ar.ok()) {
        // The archive's own validation names the failure: bad magic,
        // version mismatch or CRC corruption.
        throw SimError(ErrorKind::Transport,
                       "corrupt message payload: " + ar.error());
    }
    Message msg(std::move(ar));
    // A CRC-valid archive can still fail to be a message (wrong
    // section tag, truncated type field). Those reader panics are
    // programming errors for trusted archives, but off the wire they
    // are just more corruption — demote them to typed errors.
    std::uint32_t raw_type = 0;
    try {
        logging::ThrowOnError guard;
        msg.ar.expectSection("msg");
        raw_type = msg.ar.getU32();
    } catch (const SimError &err) {
        throw SimError(ErrorKind::Transport,
                       std::string("malformed message payload: ") +
                           err.what());
    }
    if (!knownMsgType(raw_type)) {
        throw SimError(ErrorKind::Transport,
                       "unknown message type " +
                           std::to_string(raw_type) +
                           " (peer speaks a newer protocol?)");
    }
    msg.type = static_cast<MsgType>(raw_type);
    return msg;
}

std::optional<Message>
recvMessage(const Fd &fd, double timeout_ms,
            const std::atomic<bool> *abort)
{
    FdChannel ch(&fd);
    return recvMessage(ch, timeout_ms, abort);
}

} // namespace ipc
} // namespace rasim
