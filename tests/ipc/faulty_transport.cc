#include "ipc/faulty_transport.hh"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "sim/sim_error.hh"

namespace rasim
{
namespace ipc
{

const char *
toString(TransportFaultKind kind)
{
    switch (kind) {
      case TransportFaultKind::None:
        return "none";
      case TransportFaultKind::TornFrame:
        return "torn-frame";
      case TransportFaultKind::ShortRead:
        return "short-read";
      case TransportFaultKind::Corrupt:
        return "corrupt";
      case TransportFaultKind::Delay:
        return "delay";
      case TransportFaultKind::Stall:
        return "stall";
      case TransportFaultKind::Disconnect:
        return "disconnect";
      case TransportFaultKind::Oversize:
        return "oversize";
    }
    return "unknown";
}

TransportFaultSchedule::TransportFaultSchedule(
    const TransportFaultOptions &opts, std::uint64_t stream)
    : opts_(opts), rng_(opts.seed, stream)
{
}

TransportFaultKind
TransportFaultSchedule::draw(
    const std::pair<TransportFaultKind, double> *bands, std::size_t n)
{
    std::uint64_t op = ops_++;
    // Exactly one Rng draw per operation whatever happens below, so
    // the schedule's sequence is a pure function of the operation
    // ordinal — reconnects and retries cannot desynchronise it.
    double u = rng_.uniform();
    if (op < opts_.start_op)
        return TransportFaultKind::None;
    if (opts_.max_faults > 0 && faults_ >= opts_.max_faults)
        return TransportFaultKind::None;
    if (since_fault_ < opts_.min_gap_ops) {
        ++since_fault_;
        return TransportFaultKind::None;
    }
    double edge = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        edge += bands[i].second;
        if (u < edge) {
            ++faults_;
            since_fault_ = 0;
            ++by_kind_[static_cast<std::size_t>(bands[i].first)];
            return bands[i].first;
        }
    }
    // No increment here: once out of the gap, since_fault_ only moves
    // again by a fault resetting it (and the pre-first-fault ~0
    // sentinel must not wrap around into a phantom gap).
    return TransportFaultKind::None;
}

TransportFaultKind
TransportFaultSchedule::nextSend()
{
    const std::pair<TransportFaultKind, double> bands[] = {
        {TransportFaultKind::TornFrame, opts_.torn_frame},
        {TransportFaultKind::ShortRead, opts_.short_read},
        {TransportFaultKind::Corrupt, opts_.corrupt},
        {TransportFaultKind::Delay, opts_.delay},
        {TransportFaultKind::Disconnect, opts_.disconnect},
    };
    return draw(bands, std::size(bands));
}

TransportFaultKind
TransportFaultSchedule::nextRecv(bool header)
{
    // A header read can only be cut short (ShortRead); payload reads
    // can be torn or corrupted. Stalls apply to either.
    const std::pair<TransportFaultKind, double> header_bands[] = {
        {TransportFaultKind::Stall, opts_.stall},
        {TransportFaultKind::ShortRead, opts_.short_read},
    };
    const std::pair<TransportFaultKind, double> payload_bands[] = {
        {TransportFaultKind::Stall, opts_.stall},
        {TransportFaultKind::TornFrame, opts_.torn_frame},
        {TransportFaultKind::Corrupt, opts_.corrupt},
    };
    if (header)
        return draw(header_bands, std::size(header_bands));
    return draw(payload_bands, std::size(payload_bands));
}

void
TransportFaultSchedule::noteForced(TransportFaultKind kind)
{
    // Counters only: a forced fault neither consumes a draw nor
    // resets the gap — the probabilistic schedule stays exactly where
    // it was.
    if (kind == TransportFaultKind::None)
        return;
    ++faults_;
    ++by_kind_[static_cast<std::size_t>(kind)];
}

namespace
{

void
sleepMs(double ms)
{
    if (ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
    }
}

} // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<ByteChannel> inner,
                                 TransportFaultSchedule *schedule)
    : inner_(std::move(inner)), sched_(schedule)
{
}

FaultyTransport::FaultyTransport(std::unique_ptr<ByteChannel> inner,
                                 const TransportFaultOptions &opts,
                                 std::uint64_t stream)
    : inner_(std::move(inner)), owned_sched_(opts, stream),
      sched_(&owned_sched_)
{
}

void
FaultyTransport::die(TransportFaultKind kind, const char *detail)
{
    // An injected failure leaves the stream out of frame sync, the
    // same way the real fault would; recovery needs a fresh
    // connection, so kill this one.
    inner_->close();
    throw SimError(kind == TransportFaultKind::Stall
                       ? ErrorKind::Timeout
                       : ErrorKind::Transport,
                   std::string("injected transport fault (") +
                       toString(kind) + "): " + detail);
}

void
FaultyTransport::send(const void *data, std::size_t len)
{
    TransportFaultKind kind = forced_send_;
    forced_send_ = TransportFaultKind::None;
    if (kind == TransportFaultKind::None)
        kind = sched_->nextSend();
    else
        sched_->noteForced(kind);

    const char *bytes = static_cast<const char *>(data);
    switch (kind) {
      case TransportFaultKind::Disconnect:
        die(kind, "connection dropped before the send");
      case TransportFaultKind::ShortRead: {
        // Part of the frame header, then death: the peer reads a
        // short header.
        std::size_t cut = len < 12 ? len / 2 : 6;
        if (cut > 0)
            inner_->send(bytes, cut);
        die(kind, "connection dropped inside the frame header");
      }
      case TransportFaultKind::TornFrame: {
        // The header and part of the payload, then death: the peer
        // reads a torn frame.
        std::size_t cut = len < 12 ? len / 2 : 12 + (len - 12) / 2;
        if (cut > 0)
            inner_->send(bytes, cut);
        die(kind, "connection dropped inside the payload");
      }
      case TransportFaultKind::Corrupt: {
        // Flip one payload byte; the frame arrives whole but the
        // archive CRC32 trips on the receiving side.
        std::string mangled(bytes, len);
        mangled[len > 12 ? len - 1 : len / 2] ^= 0x40;
        inner_->send(mangled.data(), mangled.size());
        return;
      }
      case TransportFaultKind::Delay:
        sleepMs(sched_->options().delay_ms);
        break;
      default:
        break;
    }
    inner_->send(data, len);
}

std::size_t
FaultyTransport::recv(void *data, std::size_t len, double timeout_ms,
                      const std::atomic<bool> *abort)
{
    // The framing layer reads a frame in two pieces; the 12-byte read
    // is the header, anything else the payload.
    bool header = len == 12;
    TransportFaultKind kind = forced_recv_;
    forced_recv_ = TransportFaultKind::None;
    if (kind == TransportFaultKind::None)
        kind = sched_->nextRecv(header);
    else
        sched_->noteForced(kind);

    if (kind == TransportFaultKind::Stall) {
        sleepMs(sched_->options().stall_ms);
        die(kind, "read stalled past its deadline");
    }

    std::size_t got = inner_->recv(data, len, timeout_ms, abort);
    switch (kind) {
      case TransportFaultKind::ShortRead:
      case TransportFaultKind::TornFrame: {
        // Deliver a truncated read and kill the stream: the caller
        // sees the peer close mid-header / mid-payload.
        std::size_t cut = got / 2;
        inner_->close();
        return cut;
      }
      case TransportFaultKind::Corrupt:
        if (got > 0)
            static_cast<char *>(data)[got - 1] ^= 0x40;
        return got;
      case TransportFaultKind::Oversize:
        // Forge the header's length field past max_frame_bytes.
        if (header && got == len)
            std::memset(static_cast<char *>(data) + 4, 0x7f, 8);
        return got;
      default:
        return got;
    }
}

ChannelDecorator
clientChaos(TransportFaultSchedule *schedule, FaultyTransport **last)
{
    return [schedule, last](std::unique_ptr<ByteChannel> ch,
                            std::uint64_t) -> std::unique_ptr<ByteChannel> {
        auto faulty =
            std::make_unique<FaultyTransport>(std::move(ch), schedule);
        if (last)
            *last = faulty.get();
        return faulty;
    };
}

ChannelDecorator
serverChaos(const TransportFaultOptions &opts)
{
    return [opts](std::unique_ptr<ByteChannel> ch,
                  std::uint64_t id) -> std::unique_ptr<ByteChannel> {
        return std::make_unique<FaultyTransport>(std::move(ch), opts, id);
    };
}

} // namespace ipc
} // namespace rasim
