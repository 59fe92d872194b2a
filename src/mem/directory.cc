#include "mem/directory.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace mem
{

Directory::Directory(Simulation &sim, const std::string &name,
                     NodeId node, const MemParams &params,
                     MessageHub &hub, SimObject *parent)
    : SimObject(sim, name, parent),
      getSReceived(this, "gets_received", "GetS requests received"),
      getMReceived(this, "getm_received", "GetM requests received"),
      putMReceived(this, "putm_received", "PutM requests received"),
      forwardsSent(this, "forwards_sent", "Fwd* messages issued"),
      invalidationsSent(this, "invalidations_sent", "Inv messages"),
      queuedMessages(this, "queued_messages",
                     "requests queued behind a busy block"),
      node_(node), params_(params), hub_(hub),
      dram_(this, "dram", params.dram_banks, params.dram_latency,
            params.block_bytes)
{
}

void
Directory::sendAt(Tick when, const CoherenceMsg &msg, NodeId dst)
{
    Tick at = std::max(when, curTick());
    std::uint64_t seq = sim().eventq().nextSequence();
    pending_sends_.emplace(seq, PendingSend{at, msg, dst});
    sim().eventq().scheduleLambda(at, [this, seq, msg, dst] {
        pending_sends_.erase(seq);
        hub_.send(msg, dst);
    });
}

Tick
Directory::dataReadyTick(const Entry &entry, Addr addr)
{
    Tick start = curTick() + params_.dir_latency;
    if (entry.cached)
        return start;
    return dram_.access(addr, start);
}

void
Directory::handleMessage(const CoherenceMsg &msg)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetM:
      case MsgType::PutM: {
        Entry &entry = entries_[msg.addr];
        if (entry.busy) {
            entry.queue.push(msg);
            ++queuedMessages;
            return;
        }
        process(msg);
        return;
      }
      case MsgType::WBData: {
        // Owner downgraded on our FwdGetS: transaction completes.
        Entry &entry = entries_[msg.addr];
        if (!entry.busy || entry.state != DirState::M)
            panic("dir", node_, ": WBData without transaction: ",
                  msg.toString());
        entry.state = DirState::S;
        entry.sharers.insert(msg.sender);
        entry.sharers.insert(entry.pending_requestor);
        entry.owner = invalid_node;
        entry.cached = true;
        unblock(msg.addr, entry);
        return;
      }
      case MsgType::ChownAck: {
        // Ownership handed over on our FwdGetM.
        Entry &entry = entries_[msg.addr];
        if (!entry.busy || entry.state != DirState::M)
            panic("dir", node_, ": ChownAck without transaction: ",
                  msg.toString());
        entry.owner = entry.pending_requestor;
        entry.cached = false;
        unblock(msg.addr, entry);
        return;
      }
      default:
        panic("dir", node_, ": unexpected message ", msg.toString());
    }
}

void
Directory::process(const CoherenceMsg &msg)
{
    Entry &entry = entries_[msg.addr];
    switch (msg.type) {
      case MsgType::GetS:
        ++getSReceived;
        processGetS(msg, entry);
        break;
      case MsgType::GetM:
        ++getMReceived;
        processGetM(msg, entry);
        break;
      case MsgType::PutM:
        ++putMReceived;
        processPutM(msg, entry);
        break;
      default:
        panic("dir", node_, ": bad queued message ", msg.toString());
    }
}

void
Directory::processGetS(const CoherenceMsg &msg, Entry &entry)
{
    switch (entry.state) {
      case DirState::I:
      case DirState::S: {
        Tick ready = dataReadyTick(entry, msg.addr);
        entry.cached = true;
        entry.state = DirState::S;
        entry.sharers.insert(msg.requestor);
        CoherenceMsg data;
        data.type = MsgType::Data;
        data.addr = msg.addr;
        data.sender = node_;
        data.requestor = msg.requestor;
        data.ack_count = 0;
        sendAt(ready, data, msg.requestor);
        return;
      }
      case DirState::M: {
        if (entry.owner == msg.requestor)
            panic("dir", node_, ": owner re-requesting GetS");
        entry.busy = true;
        ++busy_count_;
        entry.pending_requestor = msg.requestor;
        CoherenceMsg fwd;
        fwd.type = MsgType::FwdGetS;
        fwd.addr = msg.addr;
        fwd.sender = node_;
        fwd.requestor = msg.requestor;
        ++forwardsSent;
        sendAt(curTick() + params_.dir_latency, fwd, entry.owner);
        return;
      }
    }
}

void
Directory::processGetM(const CoherenceMsg &msg, Entry &entry)
{
    switch (entry.state) {
      case DirState::I:
      case DirState::S: {
        // Invalidate other sharers; the requestor collects the acks.
        int acks = 0;
        bool req_was_sharer = entry.sharers.count(msg.requestor) > 0;
        for (NodeId sharer : entry.sharers) {
            if (sharer == msg.requestor)
                continue;
            CoherenceMsg inv;
            inv.type = MsgType::Inv;
            inv.addr = msg.addr;
            inv.sender = node_;
            inv.requestor = msg.requestor;
            ++invalidationsSent;
            sendAt(curTick() + params_.dir_latency, inv, sharer);
            ++acks;
        }
        CoherenceMsg resp;
        resp.addr = msg.addr;
        resp.sender = node_;
        resp.requestor = msg.requestor;
        resp.ack_count = acks;
        if (req_was_sharer) {
            // Upgrade: the requestor already holds the data.
            resp.type = MsgType::DataCtrl;
            sendAt(curTick() + params_.dir_latency, resp,
                   msg.requestor);
        } else {
            resp.type = MsgType::Data;
            sendAt(dataReadyTick(entry, msg.addr), resp, msg.requestor);
        }
        entry.state = DirState::M;
        entry.owner = msg.requestor;
        entry.sharers.clear();
        entry.cached = false;
        return;
      }
      case DirState::M: {
        if (entry.owner == msg.requestor)
            panic("dir", node_, ": owner re-requesting GetM");
        entry.busy = true;
        ++busy_count_;
        entry.pending_requestor = msg.requestor;
        CoherenceMsg fwd;
        fwd.type = MsgType::FwdGetM;
        fwd.addr = msg.addr;
        fwd.sender = node_;
        fwd.requestor = msg.requestor;
        ++forwardsSent;
        sendAt(curTick() + params_.dir_latency, fwd, entry.owner);
        return;
      }
    }
}

void
Directory::processPutM(const CoherenceMsg &msg, Entry &entry)
{
    CoherenceMsg ack;
    ack.type = MsgType::WBAck;
    ack.addr = msg.addr;
    ack.sender = node_;
    ack.requestor = msg.sender;

    if (entry.state == DirState::M && entry.owner == msg.sender) {
        entry.state = DirState::I;
        entry.owner = invalid_node;
        entry.cached = true; // written-back data lives in the slice
        entry.sharers.clear();
    }
    // Otherwise the write-back is stale (a forward overtook the
    // eviction); only the acknowledgement matters.
    sendAt(curTick() + params_.dir_latency, ack, msg.sender);
}

void
Directory::unblock(Addr addr, Entry &entry)
{
    entry.busy = false;
    entry.pending_requestor = invalid_node;
    --busy_count_;
    while (!entry.queue.empty() && !entry.busy) {
        CoherenceMsg next = entry.queue.pop();
        process(next);
        // process() may have re-marked the entry busy; remaining
        // messages stay queued (entry reference remains valid: no
        // rehash can happen while handling addr's own queue).
        (void)addr;
    }
}

bool
Directory::quiescent() const
{
    return busy_count_ == 0;
}

char
Directory::probeState(Addr addr) const
{
    const Entry *entry = entries_.find(params_.blockAlign(addr));
    if (!entry)
        return 'I';
    if (entry->busy)
        return 'B';
    switch (entry->state) {
      case DirState::I:
        return 'I';
      case DirState::S:
        return 'S';
      case DirState::M:
        return 'M';
    }
    return '?';
}

std::size_t
Directory::probeSharerCount(Addr addr) const
{
    const Entry *entry = entries_.find(params_.blockAlign(addr));
    return entry ? entry->sharers.size() : 0;
}

std::size_t
Directory::probeQueued(Addr addr) const
{
    const Entry *entry = entries_.find(params_.blockAlign(addr));
    return entry ? entry->queue.size() : 0;
}

void
Directory::save(ArchiveWriter &aw) const
{
    aw.beginSection("dir");
    dram_.save(aw);
    aw.putU64(busy_count_);

    // FlatMap iterates in ascending address order — same bytes as the
    // sort-before-save loop this replaces.
    aw.putU64(entries_.size());
    for (const auto &[addr, entry] : entries_) {
        aw.putU64(addr);
        aw.putU8(static_cast<std::uint8_t>(entry.state));
        aw.putU64(entry.sharers.size());
        for (NodeId sharer : entry.sharers) // NodeSet: sorted
            aw.putU32(sharer);
        aw.putU32(entry.owner);
        aw.putBool(entry.cached);
        aw.putBool(entry.busy);
        aw.putU32(entry.pending_requestor);
        aw.putU64(entry.queue.size());
        for (const CoherenceMsg &msg : entry.queue)
            saveMsg(aw, msg);
    }

    aw.putU64(pending_sends_.size());
    for (const auto &[seq, ps] : pending_sends_) {
        aw.putU64(seq);
        aw.putU64(ps.when);
        saveMsg(aw, ps.msg);
        aw.putU32(ps.dst);
    }
    aw.endSection();
}

void
Directory::restore(ArchiveReader &ar)
{
    ar.expectSection("dir");
    dram_.restore(ar);
    busy_count_ = ar.getU64();

    entries_.clear();
    std::uint64_t n_entries = ar.getU64();
    for (std::uint64_t i = 0; i < n_entries; ++i) {
        Addr addr = ar.getU64();
        Entry &entry = entries_[addr];
        entry.state = static_cast<DirState>(ar.getU8());
        std::uint64_t n_sharers = ar.getU64();
        for (std::uint64_t s = 0; s < n_sharers; ++s)
            entry.sharers.insert(ar.getU32());
        entry.owner = ar.getU32();
        entry.cached = ar.getBool();
        entry.busy = ar.getBool();
        entry.pending_requestor = ar.getU32();
        std::uint64_t n_queued = ar.getU64();
        for (std::uint64_t q = 0; q < n_queued; ++q)
            entry.queue.push(restoreMsg(ar));
    }

    pending_sends_.clear();
    std::uint64_t n_sends = ar.getU64();
    for (std::uint64_t i = 0; i < n_sends; ++i) {
        std::uint64_t seq = ar.getU64();
        Tick when = ar.getU64();
        CoherenceMsg msg = restoreMsg(ar);
        NodeId dst = ar.getU32();
        pending_sends_.emplace(seq, PendingSend{when, msg, dst});
        sim().eventq().scheduleLambdaWithSequence(
            when,
            [this, seq, msg, dst] {
                pending_sends_.erase(seq);
                hub_.send(msg, dst);
            },
            Event::default_pri, seq);
    }
    ar.endSection();
}

} // namespace mem
} // namespace rasim
