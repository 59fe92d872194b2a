/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 */

#ifndef RASIM_SIM_EVENTQ_HH
#define RASIM_SIM_EVENTQ_HH

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/callable.hh"
#include "sim/event.hh"
#include "sim/types.hh"

namespace rasim
{

class LambdaEvent;

/**
 * Ordered queue of pending events plus the current simulated time.
 *
 * Events with equal tick execute in ascending priority, then insertion
 * order, making simultaneous-event behaviour deterministic. The queue
 * is an indexed binary min-heap over flat {when, priority, sequence,
 * Event*} entries: the keys sit inline, so sifting never dereferences
 * an event, and each event records its heap position, so deschedule()
 * and reschedule() stay O(log n). (when, priority, sequence) is a
 * strict total order, so the firing order is fully determined by the
 * keys and not by the heap's shape. After the heap reaches its
 * working-set size, scheduling allocates nothing. (Binary, because on
 * host_tuned256 with a 4-vCPU Xeon it ran ~5% faster than a 4-ary and
 * ~10% faster than an 8-ary heap.)
 */
class EventQueue
{
  public:
    explicit EventQueue(std::string name = "eventq");
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return cur_tick_; }

    /** Schedule @p ev at absolute tick @p when (>= curTick()). */
    void schedule(Event *ev, Tick when);

    /** Remove a scheduled event. @pre ev->scheduled(). */
    void deschedule(Event *ev);

    /** Move a scheduled (or idle) event to @p when. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot event running @p fn; the event object is
     * recycled from a queue-owned free list after it fires, so once the
     * free list and the heap reach their high-water marks this
     * allocates nothing. Convenient for fire-and-forget
     * callbacks like packet deliveries. The callable must fit
     * InlineCallable's inline buffer (enforced at compile time).
     */
    void scheduleLambda(Tick when, InlineCallable fn,
                        Event::Priority pri = Event::default_pri);

    /** True when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event. @pre !empty(). */
    Tick nextTick() const;

    /**
     * Execute the single earliest event, advancing curTick to it.
     * @return false if the queue was empty.
     */
    bool serviceOne();

    /**
     * Execute all events with when() <= @p until, then set curTick to
     * @p until. Events scheduled during servicing are honoured.
     */
    void serviceUntil(Tick until);

    /** Total number of events processed (statistics). */
    std::uint64_t numProcessed() const { return num_processed_; }

    /**
     * Sequence number the next schedule() will assign. Components peek
     * this immediately before scheduling so they can key bookkeeping
     * for a pending event by the sequence it is about to receive
     * (scheduling is synchronous, so the peek cannot race).
     */
    std::uint64_t nextSequence() const { return next_sequence_; }

    /**
     * Overwrite time and bookkeeping counters from a checkpoint.
     * @pre the queue is empty — restore happens before any events are
     * re-scheduled.
     */
    void restoreState(Tick cur_tick, std::uint64_t next_sequence,
                      std::uint64_t num_processed);

    /**
     * schedule() that reuses a saved insertion sequence instead of
     * assigning a fresh one; used only when re-creating the pending
     * events of a checkpoint so same-tick ordering is preserved
     * exactly. Does not advance nextSequence(). Panics on a past tick,
     * on a sequence >= nextSequence() and on a (when, priority,
     * sequence) equal to that of another restored event still pending
     * (a corrupt or twice-applied checkpoint). Fresh events need no
     * check: restoreState() requires an empty queue, so every fresh
     * sequence is at or above the restored nextSequence(), which every
     * saved sequence is below.
     */
    void scheduleWithSequence(Event *ev, Tick when,
                              std::uint64_t sequence);

    /** scheduleLambda() variant of scheduleWithSequence(). */
    void scheduleLambdaWithSequence(Tick when, InlineCallable fn,
                                    Event::Priority pri,
                                    std::uint64_t sequence);

    const std::string &name() const { return name_; }

    /** Lambda-event objects ever created (pool growth diagnostics). */
    std::size_t lambdaEventsAllocated() const
    {
        return lambda_store_.size();
    }

  private:
    friend class LambdaEvent;

    /** Pop a recycled lambda event (or grow the pool) and arm it. */
    LambdaEvent *acquireLambda(InlineCallable fn, Event::Priority pri);
    /** Return a fired lambda event to the free list. */
    void recycleLambda(LambdaEvent *ev);

    /** One heap slot: the ordering key inline, plus its event. */
    struct Entry
    {
        Tick when;
        std::uint64_t sequence;
        Event::Priority priority;
        Event *ev;

        bool
        operator<(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (priority != o.priority)
                return priority < o.priority;
            return sequence < o.sequence;
        }
    };

    /** Insert a stamped event (when_/sequence_ already set). */
    void push(Event *ev);
    /** Remove the entry at heap position @p pos. */
    void removeAt(std::size_t pos);
    /** Store @p e at @p pos and record the position in its event. */
    void place(std::size_t pos, const Entry &e);
    void siftUp(std::size_t pos, Entry e);
    void siftDown(std::size_t pos, Entry e);

    /** (when, priority, sequence) of a restored event, for the
     *  duplicate guard of scheduleWithSequence(). */
    struct RestoredKey
    {
        Tick when;
        Event::Priority priority;
        std::uint64_t sequence;

        bool operator==(const RestoredKey &) const = default;
    };

    struct RestoredKeyHash
    {
        std::size_t operator()(const RestoredKey &k) const;
    };

    std::string name_;
    Tick cur_tick_ = 0;
    std::uint64_t next_sequence_ = 0;
    std::uint64_t num_processed_ = 0;
    /** Pending events, a min-heap on Entry::operator<. */
    std::vector<Entry> heap_;
    /** Keys of restored events still pending; empty outside the
     *  window between a checkpoint restore and the restored events
     *  leaving the queue. */
    std::unordered_set<RestoredKey, RestoredKeyHash> restored_;
    /** Every lambda event this queue ever created (owned). */
    std::vector<LambdaEvent *> lambda_store_;
    /** The idle subset of lambda_store_, ready for reuse. */
    std::vector<LambdaEvent *> lambda_free_;
};

} // namespace rasim

#endif // RASIM_SIM_EVENTQ_HH
