#include "ipc/protocol.hh"

#include "sim/config.hh"
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
    config::putRecord(aw, config::record(req.params));
    aw.putU32(static_cast<std::uint32_t>(req.engine_workers));
    aw.putU64(req.start_tick);
}

HelloRequest
decodeHello(ArchiveReader &ar)
{
    HelloRequest req;
    config::Record noc;
    guardedDecode("Hello", [&] {
        req.proto = ar.getU32();
        // Checked before any other field: another revision lays the
        // rest of the Hello out differently (v8 still carried the
        // latency-table record), so its fields would decode as
        // garbage.
        if (req.proto != protocol_version) {
            throw SimError(ErrorKind::Transport,
                           "malformed Hello payload: protocol version "
                           "mismatch: client speaks v" +
                               std::to_string(req.proto) +
                               ", server speaks v" +
                               std::to_string(protocol_version));
        }
        req.model = ar.getString();
        noc = config::getRecord(ar);
        req.engine_workers = static_cast<int>(ar.getU32());
        req.start_tick = ar.getU64();
    });
    // The record is well-formed; what it says is the client's
    // configuration, so a refusal from here on is a Config error.
    logging::ThrowOnError guard;
    Config noc_cfg(noc);
    req.params = config::parse<noc::NocParams>(noc_cfg);
    noc_cfg.refuseUnread();
    return req;
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
