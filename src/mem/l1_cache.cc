#include "mem/l1_cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace mem
{

L1Cache::L1Cache(Simulation &sim, const std::string &name, NodeId node,
                 const MemParams &params, MessageHub &hub,
                 HomeOf home_of, SimObject *parent)
    : SimObject(sim, name, parent),
      loadHits(this, "load_hits", "loads hitting in the L1"),
      loadMisses(this, "load_misses", "loads missing in the L1"),
      storeHits(this, "store_hits", "stores hitting in M state"),
      storeMisses(this, "store_misses", "stores missing in the L1"),
      upgrades(this, "upgrades", "S-to-M upgrade transactions"),
      writebacks(this, "writebacks", "dirty blocks written back"),
      invsReceived(this, "invs_received", "invalidations received"),
      fwdsReceived(this, "fwds_received", "forwards received"),
      retriesSignalled(this, "retries", "resource-full retries"),
      node_(node), params_(params), hub_(hub),
      home_of_(std::move(home_of))
{
    sets_.assign(params_.l1_sets,
                 std::vector<Line>(params_.l1_ways));
    repl_ = makeReplacement(params_.l1_replacement, params_.l1_sets,
                            params_.l1_ways,
                            sim.makeRng(0x11c0 + node));
}

int
L1Cache::setOf(Addr block) const
{
    return static_cast<int>(
        (block / static_cast<Addr>(params_.block_bytes)) %
        static_cast<Addr>(params_.l1_sets));
}

L1Cache::Line *
L1Cache::findLine(Addr block)
{
    for (Line &line : sets_[setOf(block)])
        if (line.state != State::I && line.block == block)
            return &line;
    return nullptr;
}

const L1Cache::Line *
L1Cache::findLine(Addr block) const
{
    for (const Line &line : sets_[setOf(block)])
        if (line.state != State::I && line.block == block)
            return &line;
    return nullptr;
}

L1Cache::Line *
L1Cache::allocateLine(Addr block)
{
    auto &set = sets_[setOf(block)];
    for (Line &line : set) {
        if (line.state == State::I) {
            line.block = block;
            return &line;
        }
    }
    // Evict a stable line. Transient lines cannot be victimised.
    WayMask candidates = 0;
    for (int w = 0; w < params_.l1_ways; ++w) {
        if (set[w].state == State::S || set[w].state == State::M)
            candidates |= WayMask{1} << w;
    }
    if (candidates == 0)
        return nullptr;
    int way = repl_->victim(setOf(block), candidates);
    Line &victim = set[way];
    if (victim.state == State::M) {
        if (static_cast<int>(wb_buffer_.size()) >= params_.wb_buffer)
            return nullptr;
        // The dirty block moves to the write-back buffer and keeps
        // answering forwards from there until the home acknowledges.
        wb_buffer_.emplace(victim.block, true);
        ++writebacks;
        CoherenceMsg put;
        put.type = MsgType::PutM;
        put.addr = victim.block;
        put.sender = node_;
        put.requestor = node_;
        hub_.send(put, home_of_(victim.block));
    }
    // S eviction is silent (the home tolerates stale sharers).
    victim.state = State::I;
    victim.block = block;
    return &victim;
}

void
L1Cache::touchLine(Addr block, Line *line)
{
    int set = setOf(block);
    int way = static_cast<int>(line - sets_[set].data());
    repl_->touch(set, way, curTick());
}

void
L1Cache::sendToHome(MsgType type, Addr block)
{
    CoherenceMsg msg;
    msg.type = type;
    msg.addr = block;
    msg.sender = node_;
    msg.requestor = node_;
    hub_.send(msg, home_of_(block));
}

bool
L1Cache::access(Addr addr, bool is_write, Callback cb)
{
    return accessInternal(addr, is_write, std::move(cb), true);
}

void
L1Cache::scheduleCompletion(Tick done, bool is_write, Callback cb)
{
    // Key the bookkeeping entry by the sequence the event is about to
    // receive; the wrapper retires the entry before running the core's
    // callback so the map mirrors the queue exactly.
    std::uint64_t seq = sim().eventq().nextSequence();
    pending_completions_.emplace(seq, std::make_pair(done, is_write));
    sim().eventq().scheduleLambda(
        done, [this, seq, cb = std::move(cb)] {
            pending_completions_.erase(seq);
            cb();
        });
}

bool
L1Cache::accessInternal(Addr addr, bool is_write, Callback cb,
                        bool count_stats)
{
    Addr block = params_.blockAlign(addr);

    // Coalesce into an outstanding transaction on the same block.
    if (Mshr *m = mshrs_.find(block)) {
        m->waiters.emplace_back(is_write, std::move(cb));
        return true;
    }
    // A block sitting in the write-back buffer must complete the
    // eviction before it can be re-requested.
    if (wb_buffer_.contains(block)) {
        want_retry_ = true;
        ++retriesSignalled;
        return false;
    }

    Line *line = findLine(block);
    Tick done = curTick() + params_.l1_latency;

    if (line && line->state == State::M) {
        if (count_stats)
            (is_write ? storeHits : loadHits) += 1;
        touchLine(block, line);
        scheduleCompletion(done, is_write, std::move(cb));
        return true;
    }
    if (line && line->state == State::S && !is_write) {
        if (count_stats)
            ++loadHits;
        touchLine(block, line);
        scheduleCompletion(done, false, std::move(cb));
        return true;
    }

    if (static_cast<int>(mshrs_.size()) >= params_.mshrs) {
        want_retry_ = true;
        ++retriesSignalled;
        return false;
    }

    if (line && line->state == State::S && is_write) {
        // Upgrade in place.
        ++upgrades;
        if (count_stats)
            ++storeMisses;
        line->state = State::SM_D;
        Mshr &m = mshrs_[block];
        m.is_write = true;
        m.waiters.emplace_back(true, std::move(cb));
        sendToHome(MsgType::GetM, block);
        return true;
    }

    if (line)
        panic("l1", node_, ": access raced a transient line");

    line = allocateLine(block);
    if (!line) {
        want_retry_ = true;
        ++retriesSignalled;
        return false;
    }
    if (count_stats)
        (is_write ? storeMisses : loadMisses) += 1;
    line->state = is_write ? State::IM_D : State::IS_D;
    Mshr &m = mshrs_[block];
    m.is_write = is_write;
    m.waiters.emplace_back(is_write, std::move(cb));
    sendToHome(is_write ? MsgType::GetM : MsgType::GetS, block);
    return true;
}

void
L1Cache::handleMessage(const CoherenceMsg &msg)
{
    switch (msg.type) {
      case MsgType::Data:
      case MsgType::DataCtrl:
        handleData(msg);
        break;
      case MsgType::InvAck:
        handleInvAck(msg);
        break;
      case MsgType::Inv:
        handleInv(msg);
        break;
      case MsgType::FwdGetS:
      case MsgType::FwdGetM:
        handleFwd(msg);
        break;
      case MsgType::WBAck:
        handleWBAck(msg);
        break;
      default:
        panic("l1", node_, ": unexpected message ", msg.toString());
    }
}

void
L1Cache::handleData(const CoherenceMsg &msg)
{
    Mshr *mp = mshrs_.find(msg.addr);
    if (!mp)
        panic("l1", node_, ": data without transaction: ",
              msg.toString());
    Mshr &m = *mp;
    Line *line = findLine(msg.addr);
    if (!line)
        panic("l1", node_, ": data for unallocated line");

    m.data_received = true;
    m.pending_acks += msg.ack_count;

    if (line->state == State::IS_D) {
        line->state = m.was_invalidated ? State::I : State::S;
        touchLine(msg.addr, line);
        finishMshr(msg.addr);
        return;
    }
    if (line->state != State::IM_D && line->state != State::SM_D)
        panic("l1", node_, ": data in unexpected state");
    if (m.pending_acks == 0) {
        line->state = State::M;
        touchLine(msg.addr, line);
        finishMshr(msg.addr);
    }
}

void
L1Cache::handleInvAck(const CoherenceMsg &msg)
{
    Mshr *mp = mshrs_.find(msg.addr);
    if (!mp)
        panic("l1", node_, ": stray InvAck ", msg.toString());
    Mshr &m = *mp;
    --m.pending_acks;
    if (m.data_received && m.pending_acks == 0) {
        Line *line = findLine(msg.addr);
        if (!line || (line->state != State::IM_D &&
                      line->state != State::SM_D))
            panic("l1", node_, ": InvAck completion in bad state");
        line->state = State::M;
        finishMshr(msg.addr);
    }
}

void
L1Cache::handleInv(const CoherenceMsg &msg)
{
    ++invsReceived;
    // Always acknowledge towards the requestor waiting for us.
    CoherenceMsg ack;
    ack.type = MsgType::InvAck;
    ack.addr = msg.addr;
    ack.sender = node_;
    ack.requestor = msg.requestor;
    hub_.send(ack, msg.requestor);

    Line *line = findLine(msg.addr);
    if (!line)
        return; // silently evicted or long-stale epoch
    switch (line->state) {
      case State::S:
        line->state = State::I;
        break;
      case State::SM_D: {
        Mshr &m = mshrs_.at(msg.addr);
        if (!m.data_received) {
            // Real: our upgrade lost the race; the home will answer
            // with full data.
            line->state = State::IM_D;
        }
        // Data already received: we are the legitimate M-elect and the
        // Inv is from a stale epoch. Nothing further.
        break;
      }
      case State::IS_D: {
        // Reordered past our data: consume-once semantics.
        mshrs_.at(msg.addr).was_invalidated = true;
        break;
      }
      case State::M:
      case State::IM_D:
      case State::MI_A:
        break; // stale epochs; ack was enough
      case State::I:
        panic("l1", node_, ": I line in lookup");
    }
}

void
L1Cache::handleFwd(const CoherenceMsg &msg)
{
    ++fwdsReceived;
    Line *line = findLine(msg.addr);
    bool evicting = wb_buffer_.contains(msg.addr);

    if (!line && !evicting)
        panic("l1", node_, ": forward to non-owner: ", msg.toString());

    if (line && (line->state == State::IM_D ||
                 line->state == State::SM_D)) {
        // Owner-elect without data yet: stall the forward.
        deferred_[msg.addr].push_back(msg);
        return;
    }
    if (line && line->state != State::M)
        panic("l1", node_, ": forward in state without ownership");

    // Data to the requestor (cache-to-cache).
    CoherenceMsg data;
    data.type = MsgType::Data;
    data.addr = msg.addr;
    data.sender = node_;
    data.requestor = msg.requestor;
    data.ack_count = 0;
    hub_.send(data, msg.requestor);

    if (msg.type == MsgType::FwdGetS) {
        // Downgrade: the home also needs the dirty data.
        CoherenceMsg wb;
        wb.type = MsgType::WBData;
        wb.addr = msg.addr;
        wb.sender = node_;
        wb.requestor = msg.requestor;
        hub_.send(wb, home_of_(msg.addr));
        if (line)
            line->state = State::S;
        // Write-back-buffer copies stay put until the (stale) PutM is
        // acknowledged.
    } else {
        CoherenceMsg chown;
        chown.type = MsgType::ChownAck;
        chown.addr = msg.addr;
        chown.sender = node_;
        chown.requestor = msg.requestor;
        hub_.send(chown, home_of_(msg.addr));
        if (line)
            line->state = State::I;
    }
}

void
L1Cache::handleWBAck(const CoherenceMsg &msg)
{
    if (!wb_buffer_.erase(msg.addr))
        panic("l1", node_, ": WBAck without write-back: ",
              msg.toString());
    signalRetry();
}

void
L1Cache::finishMshr(Addr block)
{
    auto waiters = std::move(mshrs_.at(block).waiters);
    mshrs_.erase(block);

    // Stalled forwards act on the freshly stable line first (protocol
    // order), then the waiting core operations re-issue.
    processDeferred(block);

    for (auto &[is_write, cb] : waiters) {
        // Re-run: hits complete, mismatches (e.g. a store waiting on a
        // line that just got forwarded away) start a new transaction.
        if (!accessInternal(block, is_write, std::move(cb), false))
            panic("l1", node_, ": waiter re-issue must not fail");
    }
    signalRetry();
}

void
L1Cache::processDeferred(Addr block)
{
    std::vector<CoherenceMsg> *dp = deferred_.find(block);
    if (!dp)
        return;
    std::vector<CoherenceMsg> msgs = std::move(*dp);
    deferred_.erase(block);
    for (const CoherenceMsg &msg : msgs)
        handleFwd(msg);
}

void
L1Cache::signalRetry()
{
    if (want_retry_ && retry_cb_) {
        want_retry_ = false;
        retry_cb_();
    }
}

bool
L1Cache::quiescent() const
{
    return mshrs_.empty() && wb_buffer_.empty() && deferred_.empty();
}

void
L1Cache::save(ArchiveWriter &aw) const
{
    aw.beginSection("l1");

    for (const auto &set : sets_) {
        for (const Line &line : set) {
            aw.putU64(line.block);
            aw.putU8(static_cast<std::uint8_t>(line.state));
        }
    }
    repl_->save(aw);

    // FlatMap iterates in ascending key order, so the archive (and
    // therefore the CRC) is reproducible without the sort-before-save
    // loops the unordered maps needed.
    aw.putU64(mshrs_.size());
    for (const auto &[addr, m] : mshrs_) {
        aw.putU64(addr);
        aw.putBool(m.is_write);
        aw.putBool(m.data_received);
        aw.putBool(m.was_invalidated);
        aw.putI64(m.pending_acks);
        aw.putU64(m.waiters.size());
        for (const auto &[is_write, cb] : m.waiters)
            aw.putBool(is_write);
    }

    aw.putU64(wb_buffer_.size());
    for (const auto &[addr, dirty] : wb_buffer_) {
        aw.putU64(addr);
        aw.putBool(dirty);
    }

    aw.putU64(deferred_.size());
    for (const auto &[addr, msgs] : deferred_) {
        aw.putU64(addr);
        aw.putU64(msgs.size());
        for (const CoherenceMsg &msg : msgs)
            saveMsg(aw, msg);
    }

    aw.putU64(pending_completions_.size());
    for (const auto &[seq, entry] : pending_completions_) {
        aw.putU64(seq);
        aw.putU64(entry.first);
        aw.putBool(entry.second);
    }

    aw.putBool(want_retry_);
    aw.endSection();
}

void
L1Cache::restore(ArchiveReader &ar)
{
    ar.expectSection("l1");

    for (auto &set : sets_) {
        for (Line &line : set) {
            line.block = ar.getU64();
            line.state = static_cast<State>(ar.getU8());
        }
    }
    repl_->restore(ar);

    if (!completion_factory_)
        panic("l1", node_,
              ": restore without a completion factory installed");

    mshrs_.clear();
    std::uint64_t n_mshrs = ar.getU64();
    for (std::uint64_t i = 0; i < n_mshrs; ++i) {
        Addr addr = ar.getU64();
        Mshr &m = mshrs_[addr];
        m.is_write = ar.getBool();
        m.data_received = ar.getBool();
        m.was_invalidated = ar.getBool();
        m.pending_acks = static_cast<int>(ar.getI64());
        std::uint64_t n_waiters = ar.getU64();
        for (std::uint64_t w = 0; w < n_waiters; ++w) {
            bool is_write = ar.getBool();
            m.waiters.emplace_back(is_write,
                                   completion_factory_(is_write));
        }
    }

    wb_buffer_.clear();
    std::uint64_t n_wb = ar.getU64();
    for (std::uint64_t i = 0; i < n_wb; ++i) {
        Addr addr = ar.getU64();
        wb_buffer_[addr] = ar.getBool();
    }

    deferred_.clear();
    std::uint64_t n_def = ar.getU64();
    for (std::uint64_t i = 0; i < n_def; ++i) {
        Addr addr = ar.getU64();
        std::uint64_t n_msgs = ar.getU64();
        auto &msgs = deferred_[addr];
        for (std::uint64_t k = 0; k < n_msgs; ++k)
            msgs.push_back(restoreMsg(ar));
    }

    pending_completions_.clear();
    std::uint64_t n_pc = ar.getU64();
    for (std::uint64_t i = 0; i < n_pc; ++i) {
        std::uint64_t seq = ar.getU64();
        Tick when = ar.getU64();
        bool is_write = ar.getBool();
        pending_completions_.emplace(seq,
                                     std::make_pair(when, is_write));
        Callback cb = completion_factory_(is_write);
        sim().eventq().scheduleLambdaWithSequence(
            when,
            [this, seq, cb = std::move(cb)] {
                pending_completions_.erase(seq);
                cb();
            },
            Event::default_pri, seq);
    }

    want_retry_ = ar.getBool();
    ar.endSection();
}

char
L1Cache::probeState(Addr addr) const
{
    const Line *line = findLine(params_.blockAlign(addr));
    if (!line)
        return 'I';
    switch (line->state) {
      case State::S:
        return 'S';
      case State::M:
        return 'M';
      default:
        return 'T';
    }
}

} // namespace mem
} // namespace rasim
