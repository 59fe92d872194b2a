#include "cpu/core.hh"

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace rasim
{
namespace cpu
{

SyntheticCore::SyntheticCore(
    Simulation &sim, const std::string &name, NodeId node,
    mem::L1Cache &l1, std::unique_ptr<workload::AddressStream> stream,
    const CoreParams &params, SimObject *parent)
    : SimObject(sim, name, parent),
      opsIssued(this, "ops_issued", "memory operations issued"),
      loadsCompleted(this, "loads_completed", "loads completed"),
      storesCompleted(this, "stores_completed", "stores completed"),
      stallRetries(this, "stall_retries",
                   "issues rejected by full L1 resources"),
      cyclesStalledEstimate(this, "load_stall_cycles",
                            "cycles spent waiting on loads"),
      node_(node), l1_(l1), stream_(std::move(stream)), params_(params),
      rng_(sim.makeRng(0xc07e + node)),
      step_event_([this] { step(); }, name + ".step")
{
    if (params_.mem_ratio <= 0.0 || params_.mem_ratio > 1.0)
        fatal("core mem_ratio must be in (0, 1]");
    if (params_.store_buffer < 1)
        fatal("core store buffer must hold at least one entry");
    l1_.setRetryCallback([this] { step(); });
    // Lets the L1 rebuild our completion closures when restoring a
    // checkpoint: they are fully determined by the operation kind.
    l1_.setCompletionFactory([this](bool is_write) {
        return is_write ? mem::L1Cache::Callback([this] { storeDone(); })
                        : mem::L1Cache::Callback([this] { loadDone(); });
    });
}

SyntheticCore::~SyntheticCore()
{
    // Tolerate teardown of partial runs (tick-limited experiments).
    if (step_event_.scheduled())
        sim().eventq().deschedule(&step_event_);
}

void
SyntheticCore::init()
{
    if (params_.ops_budget == 0) {
        finished_ = true;
        return;
    }
    scheduleNext();
}

void
SyntheticCore::scheduleNext()
{
    if (issued_ >= params_.ops_budget)
        return;
    // Compute burst: geometric gap with mean 1/mem_ratio models an
    // IPC-1 core whose instructions are memory ops with p = mem_ratio.
    Tick gap = 1 + rng_.geometric(params_.mem_ratio);
    sim().eventq().reschedule(&step_event_, curTick() + gap);
}

void
SyntheticCore::step()
{
    if (finished_ || issued_ >= params_.ops_budget || waiting_load_)
        return;
    if (!have_pending_op_) {
        pending_op_ = stream_->next();
        have_pending_op_ = true;
    }

    if (pending_op_.is_write) {
        if (stores_in_flight_ >= params_.store_buffer) {
            blocked_store_full_ = true;
            return; // storeDone() re-enters
        }
        if (!l1_.access(pending_op_.addr, true, [this] { storeDone(); })) {
            ++stallRetries;
            return; // L1 retry callback re-enters
        }
        ++stores_in_flight_;
        ++issued_;
        ++opsIssued;
        have_pending_op_ = false;
        scheduleNext();
        return;
    }

    if (!l1_.access(pending_op_.addr, false, [this] { loadDone(); })) {
        ++stallRetries;
        return;
    }
    waiting_load_ = true;
    last_stall_start_ = curTick();
    ++issued_;
    ++opsIssued;
    have_pending_op_ = false;
}

void
SyntheticCore::loadDone()
{
    waiting_load_ = false;
    cyclesStalledEstimate +=
        static_cast<double>(curTick() - last_stall_start_);
    ++completed_;
    ++loadsCompleted;
    checkFinished();
    if (!finished_)
        scheduleNext();
}

void
SyntheticCore::storeDone()
{
    --stores_in_flight_;
    ++completed_;
    ++storesCompleted;
    if (blocked_store_full_) {
        blocked_store_full_ = false;
        step();
    }
    checkFinished();
}

void
SyntheticCore::checkFinished()
{
    if (finished_)
        return;
    if (completed_ >= params_.ops_budget && stores_in_flight_ == 0 &&
        !waiting_load_) {
        finished_ = true;
        finish_tick_ = curTick();
    }
}

bool
SyntheticCore::done() const
{
    return finished_;
}

void
SyntheticCore::save(ArchiveWriter &aw) const
{
    aw.beginSection("core");
    const Rng::State rs = rng_.state();
    aw.putU64(rs.state);
    aw.putU64(rs.inc);
    stream_->save(aw);

    aw.putBool(step_event_.scheduled());
    if (step_event_.scheduled()) {
        aw.putU64(step_event_.when());
        aw.putU64(step_event_.sequence());
    }

    aw.putU64(issued_);
    aw.putU64(completed_);
    aw.putI64(stores_in_flight_);
    aw.putBool(waiting_load_);
    aw.putBool(blocked_store_full_);
    aw.putBool(have_pending_op_);
    aw.putU64(pending_op_.addr);
    aw.putBool(pending_op_.is_write);
    aw.putBool(finished_);
    aw.putU64(finish_tick_);
    aw.putU64(last_stall_start_);
    aw.endSection();
}

void
SyntheticCore::restore(ArchiveReader &ar)
{
    ar.expectSection("core");
    Rng::State rs;
    rs.state = ar.getU64();
    rs.inc = ar.getU64();
    rng_.setState(rs);
    stream_->restore(ar);

    if (ar.getBool()) {
        Tick when = ar.getU64();
        std::uint64_t seq = ar.getU64();
        sim().eventq().scheduleWithSequence(&step_event_, when, seq);
    }

    issued_ = ar.getU64();
    completed_ = ar.getU64();
    stores_in_flight_ = static_cast<int>(ar.getI64());
    waiting_load_ = ar.getBool();
    blocked_store_full_ = ar.getBool();
    have_pending_op_ = ar.getBool();
    pending_op_.addr = ar.getU64();
    pending_op_.is_write = ar.getBool();
    finished_ = ar.getBool();
    finish_tick_ = ar.getU64();
    last_stall_start_ = ar.getU64();
    ar.endSection();
}

} // namespace cpu
} // namespace rasim
