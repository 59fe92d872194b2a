/**
 * @file
 * The quantum-RPC protocol spoken between a RemoteNetwork client and a
 * rasim-nocd server: typed encode/decode for every message payload, on
 * top of the ipc framing layer. One session hosts one network; the
 * protocol is strictly request/reply from the client's point of view,
 * which is what keeps a remote run bit-identical to an in-process one.
 *
 * Session lifecycle:
 *
 *   Hello -> HelloAck                 build the hosted network
 *   { Step -> StepReply }             once per quantum: the inject
 *                                     batch and the advance target
 *                                     in one frame each way
 *   TableGet -> TableData             tuned-table readback (optional)
 *   StatsGet -> StatsData             stats pull (optional)
 *   CkptSave -> CkptData              paired checkpoint (optional)
 *   CkptLoad -> CkptLoadAck           cross-process restore (optional)
 *   Bye (or EOF)                      tear the session down
 *
 * Any request can instead be answered with ErrorReply carrying an
 * ErrorKind + message, which the client re-raises as a SimError.
 *
 * Since v5 Step is the only way a quantum crosses the wire (the v1
 * two-frame exchange is retired). Under reciprocal coupling quantum
 * N's deliveries re-tune the latency table before quantum N+1's
 * injections read it, so every quantum is one strict request/reply
 * and the server never runs ahead of the client.
 *
 * Decoder hardening: every decode* function below converts archive
 * reader misuse on CRC-valid-but-malformed payloads into typed
 * SimError{Transport} (never a panic), and rejects implausible
 * element counts before allocating for them — wire input is never
 * trusted, even after its checksum passes.
 */

#ifndef RASIM_IPC_PROTOCOL_HH
#define RASIM_IPC_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ipc/frame.hh"
#include "noc/packet.hh"
#include "noc/params.hh"
#include "sim/sim_error.hh"
#include "sim/types.hh"

namespace rasim
{
namespace ipc
{

/** Protocol revision, checked in Hello independently of the archive
 *  format version (the archive guards encoding, this guards meaning).
 *  v2 added the coalesced Step/StepReply exchange; v3 added Ping/Pong
 *  liveness frames and the CRC64 replica-attestation digests carried
 *  by CkptData, CkptLoadAck and attested StepReplies; v4 carries the
 *  compute-kernel selection (network.kernel, kernel.simd) in Hello so
 *  the server builds the same backend the client configured; v5
 *  retires the v1 two-frame exchange (message types 2, 3 and 103)
 *  and the Step request's run-ahead hint byte, leaving Step/StepReply
 *  as the only quantum exchange; v6 drops Hello's kernel string —
 *  the server always hosts the soa kernel, and kernel.simd stays;
 *  v7 retires the Ping/Pong liveness pair (message types 10 and 109),
 *  which only the since-deleted worker-fleet manager sent. */
constexpr std::uint32_t protocol_version = 7;

/** Session-opening handshake: everything the server needs to build a
 *  deterministic twin of the in-process backend. */
struct HelloRequest
{
    std::uint32_t proto = protocol_version;
    /** Hosted model: "cycle" or "deflection". */
    std::string model = "cycle";
    noc::NocParams params;
    /** Worker threads of the server-side ParallelEngine (0 = serial).
     *  Bit-identical either way, by the engine determinism contract. */
    int engine_workers = 0;
    /** Fast-forward a fresh network to this tick (reconnect after a
     *  server loss mid-run; 0 on a cold start). */
    Tick start_tick = 0;
    /** Shadow LatencyTable geometry (tuned-table readback). */
    double table_alpha = 0.05;
    bool table_pair_granularity = false;
    int table_max_hops = 0;
};

struct HelloReply
{
    std::uint64_t num_nodes = 0;
    Tick cur_time = 0;
};

/** StepReply body: the quantum's deliveries plus the mirrored state
 *  the client needs to answer NetworkModel queries locally. */
struct AdvanceReply
{
    Tick cur_time = 0;
    bool idle = true;
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t in_flight = 0;
    std::vector<noc::PacketPtr> deliveries;
};

/** Quantum request: the inject batch and the advance target travel
 *  in one frame. */
struct StepRequest
{
    Tick target = 0;
    /** Client wants a CRC64 state digest with the reply (v3): the
     *  server serializes its post-advance state and attests it, so a
     *  recovery replay can prove the rebuilt replica reconverged. */
    bool attest = false;
    std::vector<noc::PacketPtr> packets;
};

/** @name StepReply flag bits (the attested bit gates a digest
 *  field). Bits 1 and 2 were retired in v5. Bit 4 is unassigned too:
 *  a v6 server that still has a compute gate may set it, and clients
 *  ignore it. */
/// @{
constexpr std::uint8_t step_flag_attested = 8; ///< digest appended
/// @}

/** One flattened statistics row of the hosted network's subtree. */
struct StatRow
{
    std::string path;
    std::string sub;
    double value = 0.0;

    bool operator==(const StatRow &other) const = default;
};

/** CkptData payload (v3): the checkpoint image plus the server's
 *  CRC64 attestation of it, so the client can (a) verify the bytes it
 *  holds and (b) later cross-check a replica restored from them. */
struct CkptReply
{
    std::string image;
    std::uint64_t digest = 0;
};

/** CkptLoadAck payload (v3): the restored tick plus the CRC64 of the
 *  *re-serialized* state — the replica's own attestation that what it
 *  now holds is bit-identical to what was pushed. */
struct CkptLoadReply
{
    Tick cur_time = 0;
    std::uint64_t digest = 0;
};

/** @name Payload encoders (append to a beginMessage() writer) */
/// @{
void encodeHello(ArchiveWriter &aw, const HelloRequest &req);
void encodeHelloReply(ArchiveWriter &aw, const HelloReply &rep);
void encodeStep(ArchiveWriter &aw, const StepRequest &req);
/** @p digest is written only when @p flags has step_flag_attested. */
void encodeStepReply(ArchiveWriter &aw, const AdvanceReply &rep,
                     std::uint8_t flags, std::uint64_t digest = 0);
void encodeCkptReply(ArchiveWriter &aw, const CkptReply &rep);
void encodeCkptLoadReply(ArchiveWriter &aw, const CkptLoadReply &rep);
void encodeStatsReply(ArchiveWriter &aw,
                      const std::vector<StatRow> &rows);
void encodeError(ArchiveWriter &aw, ErrorKind kind,
                 const std::string &what);
/// @}

/** @name Payload decoders (consume a recvMessage() payload) */
/// @{
/** Refuses a Hello of another protocol revision (typed Transport
 *  error) before it reads any field past the version. */
HelloRequest decodeHello(ArchiveReader &ar);
HelloReply decodeHelloReply(ArchiveReader &ar);
StepRequest decodeStep(ArchiveReader &ar);
/** @p flags receives the step_flag_* bits; @p digest the attestation
 *  digest (0 unless step_flag_attested is set). */
AdvanceReply decodeStepReply(ArchiveReader &ar, std::uint8_t &flags,
                             std::uint64_t *digest = nullptr);
CkptReply decodeCkptReply(ArchiveReader &ar);
CkptLoadReply decodeCkptLoadReply(ArchiveReader &ar);
std::vector<StatRow> decodeStatsReply(ArchiveReader &ar);
/** Guarded opaque-blob payload (CkptData / CkptLoad image). */
std::string decodeBlob(ArchiveReader &ar);
/** Guarded single-tick payload (CkptLoadAck). */
Tick decodeTick(ArchiveReader &ar);
/** Re-raise a decoded ErrorReply as the SimError it describes. */
[[noreturn]] void throwDecodedError(ArchiveReader &ar);
/// @}

} // namespace ipc
} // namespace rasim

#endif // RASIM_IPC_PROTOCOL_HH
