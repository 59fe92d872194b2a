#include "ipc/protocol.hh"

#include "sim/logging.hh"

namespace rasim
{
namespace ipc
{

namespace
{

/**
 * Run a decoder body with archive misuse demoted to typed transport
 * errors: a CRC-valid payload whose structure disagrees with the
 * schema (short fields, wrong tags) panics in the reader, which is
 * right for trusted checkpoints but wrong for wire input. Transport
 * and Timeout errors pass through untouched.
 */
template <typename Fn>
auto
guardedDecode(const char *what, Fn &&fn) -> decltype(fn())
{
    try {
        logging::ThrowOnError guard;
        return fn();
    } catch (const SimError &err) {
        if (err.kind() == ErrorKind::Transport ||
            err.kind() == ErrorKind::Timeout)
            throw;
        throw SimError(ErrorKind::Transport,
                       std::string("malformed ") + what +
                           " payload: " + err.what());
    }
}

/** Reject an element count no legal frame could carry before
 *  reserving memory for it: a forged count must be a typed error,
 *  not a multi-gigabyte allocation. */
void
checkCount(std::uint64_t count, std::uint64_t min_bytes_each,
           const char *what)
{
    if (count > max_frame_bytes / min_bytes_each) {
        throw SimError(ErrorKind::Transport,
                       std::string("implausible ") + what +
                           " count " + std::to_string(count) +
                           " (larger than any legal frame)");
    }
}

void
encodePackets(ArchiveWriter &aw, const std::vector<noc::PacketPtr> &pkts)
{
    aw.putU64(pkts.size());
    for (const auto &pkt : pkts)
        noc::savePacket(aw, *pkt);
}

std::vector<noc::PacketPtr>
decodePackets(ArchiveReader &ar)
{
    std::uint64_t count = ar.getU64();
    // A serialized packet is ~57 bytes; 32 is a safe lower bound.
    checkCount(count, 32, "packet");
    std::vector<noc::PacketPtr> pkts;
    pkts.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i)
        pkts.push_back(noc::restorePacket(ar));
    return pkts;
}

} // namespace

void
encodeHello(ArchiveWriter &aw, const HelloRequest &req)
{
    aw.putU32(req.proto);
    aw.putString(req.model);
    aw.putU32(static_cast<std::uint32_t>(req.params.columns));
    aw.putU32(static_cast<std::uint32_t>(req.params.rows));
    aw.putString(req.params.topology);
    aw.putString(req.params.routing);
    aw.putU32(static_cast<std::uint32_t>(req.params.vcs_per_vnet));
    aw.putU32(static_cast<std::uint32_t>(req.params.vc_classes));
    aw.putU32(static_cast<std::uint32_t>(req.params.buffer_depth));
    aw.putU32(static_cast<std::uint32_t>(req.params.link_latency));
    aw.putU32(static_cast<std::uint32_t>(req.params.pipeline_stages));
    aw.putU32(req.params.flit_bytes);
    aw.putString(req.params.kernel);
    aw.putString(req.params.simd);
    aw.putU32(static_cast<std::uint32_t>(req.engine_workers));
    aw.putU64(req.start_tick);
    aw.putDouble(req.table_alpha);
    aw.putBool(req.table_pair_granularity);
    aw.putU32(static_cast<std::uint32_t>(req.table_max_hops));
}

HelloRequest
decodeHello(ArchiveReader &ar)
{
    return guardedDecode("Hello", [&] {
        HelloRequest req;
        req.proto = ar.getU32();
        req.model = ar.getString();
        req.params.columns = static_cast<int>(ar.getU32());
        req.params.rows = static_cast<int>(ar.getU32());
        req.params.topology = ar.getString();
        req.params.routing = ar.getString();
        req.params.vcs_per_vnet = static_cast<int>(ar.getU32());
        req.params.vc_classes = static_cast<int>(ar.getU32());
        req.params.buffer_depth = static_cast<int>(ar.getU32());
        req.params.link_latency = static_cast<int>(ar.getU32());
        req.params.pipeline_stages = static_cast<int>(ar.getU32());
        req.params.flit_bytes = ar.getU32();
        req.params.kernel = ar.getString();
        req.params.simd = ar.getString();
        req.engine_workers = static_cast<int>(ar.getU32());
        req.start_tick = ar.getU64();
        req.table_alpha = ar.getDouble();
        req.table_pair_granularity = ar.getBool();
        req.table_max_hops = static_cast<int>(ar.getU32());
        return req;
    });
}

void
encodeHelloReply(ArchiveWriter &aw, const HelloReply &rep)
{
    aw.putU64(rep.num_nodes);
    aw.putU64(rep.cur_time);
}

HelloReply
decodeHelloReply(ArchiveReader &ar)
{
    return guardedDecode("HelloAck", [&] {
        HelloReply rep;
        rep.num_nodes = ar.getU64();
        rep.cur_time = ar.getU64();
        return rep;
    });
}

void
encodeStep(ArchiveWriter &aw, const StepRequest &req)
{
    aw.putU64(req.target);
    aw.putBool(req.attest);
    encodePackets(aw, req.packets);
}

StepRequest
decodeStep(ArchiveReader &ar)
{
    return guardedDecode("Step", [&] {
        StepRequest req;
        req.target = ar.getU64();
        req.attest = ar.getBool();
        req.packets = decodePackets(ar);
        return req;
    });
}

void
encodeStepReply(ArchiveWriter &aw, const AdvanceReply &rep,
                std::uint8_t flags, std::uint64_t digest)
{
    aw.putU8(flags);
    aw.putU64(rep.cur_time);
    aw.putBool(rep.idle);
    aw.putU64(rep.injected);
    aw.putU64(rep.delivered);
    aw.putU64(rep.in_flight);
    encodePackets(aw, rep.deliveries);
    if (flags & step_flag_attested)
        aw.putU64(digest);
}

AdvanceReply
decodeStepReply(ArchiveReader &ar, std::uint8_t &flags,
                std::uint64_t *digest)
{
    return guardedDecode("StepReply", [&] {
        flags = ar.getU8();
        AdvanceReply rep;
        rep.cur_time = ar.getU64();
        rep.idle = ar.getBool();
        rep.injected = ar.getU64();
        rep.delivered = ar.getU64();
        rep.in_flight = ar.getU64();
        rep.deliveries = decodePackets(ar);
        std::uint64_t d =
            (flags & step_flag_attested) ? ar.getU64() : 0;
        if (digest)
            *digest = d;
        return rep;
    });
}

void
encodePing(ArchiveWriter &aw, const PingRequest &req)
{
    aw.putU64(req.nonce);
}

PingRequest
decodePing(ArchiveReader &ar)
{
    return guardedDecode("Ping", [&] {
        PingRequest req;
        req.nonce = ar.getU64();
        return req;
    });
}

void
encodePong(ArchiveWriter &aw, const PongReply &rep)
{
    aw.putU64(rep.nonce);
    aw.putBool(rep.in_session);
    aw.putU64(rep.cur_time);
    aw.putU64(rep.sessions_active);
    aw.putU64(rep.sessions_served);
}

PongReply
decodePong(ArchiveReader &ar)
{
    return guardedDecode("Pong", [&] {
        PongReply rep;
        rep.nonce = ar.getU64();
        rep.in_session = ar.getBool();
        rep.cur_time = ar.getU64();
        rep.sessions_active = ar.getU64();
        rep.sessions_served = ar.getU64();
        return rep;
    });
}

void
encodeCkptReply(ArchiveWriter &aw, const CkptReply &rep)
{
    aw.putString(rep.image);
    aw.putU64(rep.digest);
}

CkptReply
decodeCkptReply(ArchiveReader &ar)
{
    return guardedDecode("CkptData", [&] {
        CkptReply rep;
        rep.image = ar.getString();
        rep.digest = ar.getU64();
        return rep;
    });
}

void
encodeCkptLoadReply(ArchiveWriter &aw, const CkptLoadReply &rep)
{
    aw.putU64(rep.cur_time);
    aw.putU64(rep.digest);
}

CkptLoadReply
decodeCkptLoadReply(ArchiveReader &ar)
{
    return guardedDecode("CkptLoadAck", [&] {
        CkptLoadReply rep;
        rep.cur_time = ar.getU64();
        rep.digest = ar.getU64();
        return rep;
    });
}

void
encodeStatsReply(ArchiveWriter &aw, const std::vector<StatRow> &rows)
{
    aw.putU64(rows.size());
    for (const auto &row : rows) {
        aw.putString(row.path);
        aw.putString(row.sub);
        aw.putDouble(row.value);
    }
}

std::vector<StatRow>
decodeStatsReply(ArchiveReader &ar)
{
    return guardedDecode("StatsData", [&] {
        std::uint64_t count = ar.getU64();
        // Two length-prefixed strings + a double: >= 16 bytes a row.
        checkCount(count, 16, "stat row");
        std::vector<StatRow> rows;
        rows.reserve(count);
        for (std::uint64_t i = 0; i < count; ++i) {
            StatRow row;
            row.path = ar.getString();
            row.sub = ar.getString();
            row.value = ar.getDouble();
            rows.push_back(std::move(row));
        }
        return rows;
    });
}

std::string
decodeBlob(ArchiveReader &ar)
{
    return guardedDecode("blob", [&] { return ar.getString(); });
}

Tick
decodeTick(ArchiveReader &ar)
{
    return guardedDecode("tick", [&] { return ar.getU64(); });
}

void
encodeError(ArchiveWriter &aw, ErrorKind kind, const std::string &what)
{
    aw.putU32(static_cast<std::uint32_t>(kind));
    aw.putString(what);
}

void
throwDecodedError(ArchiveReader &ar)
{
    auto decoded = guardedDecode("ErrorReply", [&] {
        // An out-of-range kind off the wire folds to Transport: the
        // peer is broken in a way this build cannot name.
        std::uint32_t raw = ar.getU32();
        auto kind =
            raw <= static_cast<std::uint32_t>(ErrorKind::Transport)
                ? static_cast<ErrorKind>(raw)
                : ErrorKind::Transport;
        std::string what = ar.getString();
        ar.endSection();
        return std::make_pair(kind, std::move(what));
    });
    throw SimError(decoded.first,
                   "remote peer reported: " + decoded.second);
}

} // namespace ipc
} // namespace rasim
