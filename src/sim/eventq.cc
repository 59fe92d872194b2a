#include "sim/eventq.hh"

#include <functional>
#include <utility>

#include "sim/logging.hh"

namespace rasim
{

/**
 * One-shot event used by scheduleLambda(). Owned by its queue and
 * recycled after firing instead of deleted, so steady-state lambda
 * scheduling never allocates.
 */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(EventQueue *owner) : owner_(owner) {}

    void arm(InlineCallable fn) { fn_ = std::move(fn); }

    void
    process() override
    {
        // Recycle before invoking: the callable may schedule another
        // lambda and immediately reuse this very object, which is fine
        // once fn_ has been moved out.
        InlineCallable fn = std::move(fn_);
        owner_->recycleLambda(this);
        fn();
    }

    std::string description() const override { return "lambda event"; }

  private:
    EventQueue *owner_;
    InlineCallable fn_;
};

EventQueue::EventQueue(std::string name) : name_(std::move(name))
{
}

EventQueue::~EventQueue()
{
    // Orphan (never delete) remaining events: they are owned by the
    // components, which are usually destroyed after the queue. Lambda
    // events are the exception — the queue owns those and reclaims the
    // whole pool, pending or idle alike.
    for (const Entry &e : heap_)
        e.ev->queue_ = nullptr;
    for (LambdaEvent *le : lambda_store_)
        delete le;
}

LambdaEvent *
EventQueue::acquireLambda(InlineCallable fn, Event::Priority pri)
{
    LambdaEvent *ev;
    if (lambda_free_.empty()) {
        ev = new LambdaEvent(this);
        lambda_store_.push_back(ev);
    } else {
        ev = lambda_free_.back();
        lambda_free_.pop_back();
    }
    ev->priority_ = pri;
    ev->arm(std::move(fn));
    return ev;
}

void
EventQueue::recycleLambda(LambdaEvent *ev)
{
    lambda_free_.push_back(ev);
}

std::size_t
EventQueue::RestoredKeyHash::operator()(const RestoredKey &k) const
{
    // Sequences of pending events are unique in any valid checkpoint.
    return std::hash<std::uint64_t>{}(k.sequence);
}

void
EventQueue::place(std::size_t pos, const Entry &e)
{
    heap_[pos] = e;
    e.ev->heap_pos_ = static_cast<std::uint32_t>(pos);
}

void
EventQueue::siftUp(std::size_t pos, Entry e)
{
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 2;
        if (!(e < heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, e);
}

void
EventQueue::siftDown(std::size_t pos, Entry e)
{
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1] < heap_[child])
            ++child;
        if (!(heap_[child] < e))
            break;
        place(pos, heap_[child]);
        pos = child;
    }
    place(pos, e);
}

void
EventQueue::push(Event *ev)
{
    ev->queue_ = this;
    heap_.push_back(Entry{ev->when_, ev->sequence_, ev->priority_, ev});
    siftUp(heap_.size() - 1, heap_.back());
}

void
EventQueue::removeAt(std::size_t pos)
{
    Entry gone = heap_[pos];
    gone.ev->queue_ = nullptr;
    if (!restored_.empty())
        restored_.erase(RestoredKey{gone.when, gone.priority,
                                    gone.sequence});
    Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    // The former tail may belong above or below the hole.
    if (pos > 0 && last < heap_[(pos - 1) / 2])
        siftUp(pos, last);
    else
        siftDown(pos, last);
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        panic("schedule of already-scheduled event '", ev->description(),
              "'");
    if (when < cur_tick_)
        panic("event '", ev->description(), "' scheduled at ", when,
              " in the past (now ", cur_tick_, ")");
    ev->when_ = when;
    ev->sequence_ = next_sequence_++;
    push(ev);
}

void
EventQueue::deschedule(Event *ev)
{
    if (ev->queue_ != this)
        panic("deschedule of event '", ev->description(),
              "' not on this queue");
    removeAt(ev->heap_pos_);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::scheduleLambda(Tick when, InlineCallable fn,
                           Event::Priority pri)
{
    schedule(acquireLambda(std::move(fn), pri), when);
}

void
EventQueue::restoreState(Tick cur_tick, std::uint64_t next_sequence,
                         std::uint64_t num_processed)
{
    if (!heap_.empty())
        panic("restoreState on a queue with ", heap_.size(),
              " pending event(s)");
    cur_tick_ = cur_tick;
    next_sequence_ = next_sequence;
    num_processed_ = num_processed;
}

void
EventQueue::scheduleWithSequence(Event *ev, Tick when,
                                 std::uint64_t sequence)
{
    if (ev->scheduled())
        panic("schedule of already-scheduled event '", ev->description(),
              "'");
    if (when < cur_tick_)
        panic("event '", ev->description(), "' restored at ", when,
              " in the past (now ", cur_tick_, ")");
    if (sequence >= next_sequence_)
        panic("event '", ev->description(), "' restored with sequence ",
              sequence, " >= next sequence ", next_sequence_);
    if (!restored_.insert(RestoredKey{when, ev->priority_, sequence})
             .second)
        panic("event '", ev->description(),
              "' restored with duplicate (when, priority, sequence)");
    ev->when_ = when;
    ev->sequence_ = sequence;
    push(ev);
}

void
EventQueue::scheduleLambdaWithSequence(Tick when, InlineCallable fn,
                                       Event::Priority pri,
                                       std::uint64_t sequence)
{
    scheduleWithSequence(acquireLambda(std::move(fn), pri), when,
                         sequence);
}

Tick
EventQueue::nextTick() const
{
    if (heap_.empty())
        panic("nextTick() on empty event queue");
    return heap_.front().when;
}

bool
EventQueue::serviceOne()
{
    if (heap_.empty())
        return false;
    Event *ev = heap_.front().ev;
    cur_tick_ = heap_.front().when;
    removeAt(0);
    ++num_processed_;
    ev->process();
    return true;
}

void
EventQueue::serviceUntil(Tick until)
{
    while (!heap_.empty() && heap_.front().when <= until)
        serviceOne();
    if (cur_tick_ < until)
        cur_tick_ = until;
}

} // namespace rasim
