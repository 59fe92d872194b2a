/**
 * @file
 * Length-prefixed, versioned message framing for the quantum-RPC
 * protocol. A frame on the wire is
 *
 *   [4]  frame magic "RNOC"
 *   [8]  payload length (u64, little-endian)
 *   [..] payload: a complete sim/serialize archive image
 *
 * The payload reuses the existing archive primitives, so its own
 * magic, format version and CRC32 trailer guard the content; the frame
 * prefix only delimits it on the stream. Inside the archive, every
 * message is one "msg" section opening with a u32 message type.
 *
 * Failure taxonomy (all typed SimErrors, no crash, no hang):
 *
 *   short read   peer closed inside the 12-byte frame header
 *   torn frame   peer closed inside the payload
 *   oversized    declared length above max_frame_bytes
 *   version      archive format version mismatch
 *   CRC          archive CRC32 mismatch (bit rot / truncation)
 *   malformed    CRC-valid payload whose structure is not a message
 *   unknown type CRC-valid message of a type this build cannot speak
 */

#ifndef RASIM_IPC_FRAME_HH
#define RASIM_IPC_FRAME_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "ipc/socket.hh"
#include "sim/serialize.hh"

namespace rasim
{
namespace ipc
{

/** Frame prefix magic ("RNOC"). */
constexpr char frame_magic[4] = {'R', 'N', 'O', 'C'};

/** Largest payload accepted off the wire (defence against a torn
 *  length prefix masquerading as a multi-gigabyte frame). */
constexpr std::uint64_t max_frame_bytes = 64ull << 20;

/** Message types of the quantum-RPC protocol. */
enum class MsgType : std::uint32_t
{
    // client -> server
    // 2, 3 and 103 belong to the v1 quantum exchange that protocol
    // v5 retired, 10 and 109 to the Ping/Pong liveness pair that v7
    // retired: never reuse them, so an old peer's frames keep failing
    // as unknown types instead of misdecoding.
    Hello = 1,    ///< open a session: network config + start tick
    TableGet = 4, ///< read back the server's tuned LatencyTable
    StatsGet = 5, ///< pull the hosted network's statistics tree
    CkptSave = 6, ///< take a paired server-side checkpoint
    CkptLoad = 7, ///< push a checkpoint image into the session
    Bye = 8,      ///< close the session cleanly
    Step = 9,     ///< one quantum: inject batch + advance target

    // server -> client
    HelloAck = 101,
    TableData = 104,
    StatsData = 105,
    CkptData = 106,
    CkptLoadAck = 107,
    StepReply = 108, ///< deliveries + time/idle/accounting + flags
    ErrorReply = 199, ///< request failed server-side: kind + message
};

/** Render a message type for diagnostics. */
const char *toString(MsgType type);

/** True when @p raw is a message type this build understands. */
bool knownMsgType(std::uint32_t raw);

/**
 * Start a message: an ArchiveWriter with the "msg" section opened and
 * the type recorded. Callers append payload fields, then hand the
 * writer to sendMessage() (which closes the section and seals the
 * archive).
 */
ArchiveWriter beginMessage(MsgType type);

/** Seal @p aw (from beginMessage) and send it as one frame. The
 *  header and payload go out in a single send, so a frame costs one
 *  syscall on the happy path. */
void sendMessage(const Fd &fd, ArchiveWriter &&aw);
/** Same, over a ByteChannel (plain or fault-injecting). */
void sendMessage(ByteChannel &ch, ArchiveWriter &&aw);

/**
 * A received message: the reader is positioned after the type field,
 * inside the open "msg" section. Call done() after consuming every
 * payload field.
 */
struct Message
{
    MsgType type = MsgType::Bye;
    ArchiveReader ar;

    explicit Message(ArchiveReader reader) : ar(std::move(reader)) {}

    /** Close the "msg" section. Incomplete consumption means the
     *  payload carried bytes this build does not understand — a typed
     *  SimError{Transport}, not a panic, since it came off the wire. */
    void done();
};

/**
 * Receive one frame and open its message.
 *
 * @param timeout_ms Deadline for the whole frame (0 = no deadline).
 * @param abort Cooperative abort flag, polled while waiting.
 * @return nullopt on a clean EOF at a frame boundary (the peer closed
 *         the session); a Message otherwise.
 * @throws SimError{Transport} for short reads, torn frames, bad frame
 *         magic, oversized payloads, archive version or CRC failures;
 *         SimError{Timeout} on deadline expiry or abort.
 */
std::optional<Message> recvMessage(const Fd &fd, double timeout_ms,
                                   const std::atomic<bool> *abort =
                                       nullptr);
/** Same, over a ByteChannel (plain or fault-injecting). */
std::optional<Message> recvMessage(ByteChannel &ch, double timeout_ms,
                                   const std::atomic<bool> *abort =
                                       nullptr);

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_FRAME_HH
