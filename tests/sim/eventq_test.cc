/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * (de|re)scheduling, lambda events, time advancement, the checkpoint
 * restore guards, and a differential test of the heap against the
 * std::set<(when, priority, sequence)> ordering it replaced.
 */

#include <gtest/gtest.h>

#include "common/expect_error.hh"

#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "sim/eventq.hh"
#include "sim/rng.hh"

namespace
{

using rasim::Event;
using rasim::EventQueue;
using rasim::Rng;
using rasim::Tick;

class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id,
                   Priority pri = Event::default_pri)
        : Event(pri), log_(log), id_(id)
    {
    }

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_FALSE(eq.serviceOne());
}

TEST(EventQueue, ServicesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 30);
    eq.schedule(&b, 10);
    eq.schedule(&c, 20);
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 3, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickOrdersByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent low(log, 1, 10);
    RecordingEvent high(log, 2, -10);
    RecordingEvent first(log, 3);
    RecordingEvent second(log, 4);
    eq.schedule(&first, 5);
    eq.schedule(&low, 5);
    eq.schedule(&high, 5);
    eq.schedule(&second, 5);
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, ScheduledFlagTracksState)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent ev(log, 1);
    EXPECT_FALSE(ev.scheduled());
    eq.schedule(&ev, 7);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 7u);
    eq.serviceOne();
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(eq.curTick(), 7u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, RescheduleWorksOnIdleEvent)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.reschedule(&a, 4);
    EXPECT_TRUE(a.scheduled());
    eq.serviceOne();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, LambdaEventsRunAndSelfDelete)
{
    EventQueue eq;
    int runs = 0;
    eq.scheduleLambda(3, [&] { ++runs; });
    eq.scheduleLambda(3, [&] { ++runs; });
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(runs, 2);
}

TEST(EventQueue, EventsScheduledDuringServiceRun)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.scheduleLambda(1, [&] {
        ticks.push_back(eq.curTick());
        eq.scheduleLambda(5, [&] { ticks.push_back(eq.curTick()); });
    });
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(ticks, (std::vector<Tick>{1, 5}));
}

TEST(EventQueue, ZeroDelaySelfScheduleAtSameTickRuns)
{
    EventQueue eq;
    int runs = 0;
    eq.scheduleLambda(2, [&] {
        ++runs;
        if (runs < 3)
            eq.scheduleLambda(2, [&] { ++runs; });
    });
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(runs, 2); // chain of one re-schedule, then stops
    EXPECT_EQ(eq.curTick(), 2u);
}

TEST(EventQueue, ServiceUntilAdvancesTimeWithoutEvents)
{
    EventQueue eq;
    eq.serviceUntil(100);
    EXPECT_EQ(eq.curTick(), 100u);
}

TEST(EventQueue, ServiceUntilRunsOnlyDueEvents)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 50);
    eq.schedule(&b, 150);
    eq.serviceUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_TRUE(b.scheduled());
    eq.serviceUntil(200);
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ServiceUntilInclusiveBoundary)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(&a, 100);
    eq.serviceUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, NumProcessedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.scheduleLambda(i, [] {});
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(eq.numProcessed(), 5u);
}

TEST(EventQueue, PastScheduleDies)
{
    EventQueue eq;
    eq.scheduleLambda(10, [] {});
    while (eq.serviceOne()) {
    }
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_SIM_ERROR(eq.schedule(&a, 5), "in the past");
}

TEST(EventQueue, DoubleScheduleDies)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(&a, 5);
    EXPECT_SIM_ERROR(eq.schedule(&a, 6), "already-scheduled");
    eq.deschedule(&a);
}

TEST(EventQueue, PendingLambdaEventsReclaimedOnDestruction)
{
    // Only checks for the absence of leaks/crashes under ASan-less
    // builds; the queue must delete pending lambda events.
    auto *eq = new EventQueue;
    eq->scheduleLambda(10, [] {});
    delete eq;
}

TEST(EventQueue, DestructionOrphansComponentEvents)
{
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    auto eq = std::make_unique<EventQueue>();
    eq->schedule(&a, 10);
    eq->schedule(&b, 20);
    eq->scheduleLambda(15, [] {});
    eq.reset();
    // Still alive and no longer scheduled, so their destructors do not
    // panic and they may be scheduled on another queue.
    EXPECT_FALSE(a.scheduled());
    EXPECT_FALSE(b.scheduled());
    EventQueue other;
    other.schedule(&a, 1);
    other.serviceOne();
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, DescheduleFromOtherQueueDies)
{
    EventQueue eq, other;
    std::vector<int> log;
    RecordingEvent a(log, 1), idle(log, 2);
    other.schedule(&a, 5);
    EXPECT_SIM_ERROR(eq.deschedule(&a), "not on this queue");
    EXPECT_SIM_ERROR(eq.deschedule(&idle), "not on this queue");
    other.deschedule(&a);
}

// ---------------------------------------------------------------------
// Checkpoint restore: scheduleWithSequence() and its guards.
// ---------------------------------------------------------------------

TEST(EventQueueRestore, RestoredEventsKeepSavedOrder)
{
    EventQueue eq;
    eq.restoreState(100, 50, 7);
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3), fresh(log, 4);
    // Same tick and priority: the saved sequences decide, not the
    // order of the restore calls.
    eq.scheduleWithSequence(&c, 120, 30);
    eq.scheduleWithSequence(&a, 120, 10);
    eq.scheduleWithSequence(&b, 120, 20);
    eq.schedule(&fresh, 120); // sequence 50: after every restored one
    EXPECT_EQ(eq.nextSequence(), 51u);
    EXPECT_EQ(a.sequence(), 10u);
    while (eq.serviceOne()) {
    }
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.numProcessed(), 11u);
}

TEST(EventQueueRestore, DuplicateKeyDies)
{
    EventQueue eq;
    eq.restoreState(0, 10, 0);
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2);
    eq.scheduleWithSequence(&a, 5, 3);
    EXPECT_SIM_ERROR(eq.scheduleWithSequence(&b, 5, 3),
                     "duplicate (when, priority, sequence)");
    EXPECT_FALSE(b.scheduled());
    EXPECT_EQ(eq.size(), 1u);
    eq.deschedule(&a);
}

TEST(EventQueueRestore, DuplicateLambdaKeyDies)
{
    EventQueue eq;
    eq.restoreState(0, 10, 0);
    eq.scheduleLambdaWithSequence(5, [] {}, Event::default_pri, 4);
    EXPECT_SIM_ERROR(
        eq.scheduleLambdaWithSequence(5, [] {}, Event::default_pri, 4),
        "duplicate (when, priority, sequence)");
    // A different priority or tick is a different key.
    eq.scheduleLambdaWithSequence(5, [] {}, Event::stat_pri, 4);
    eq.scheduleLambdaWithSequence(6, [] {}, Event::default_pri, 4);
    EXPECT_EQ(eq.size(), 3u);
    eq.serviceUntil(10);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueRestore, KeyIsFreeAgainOnceItsEventLeaves)
{
    EventQueue eq;
    eq.restoreState(0, 10, 0);
    std::vector<int> log;
    RecordingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.scheduleWithSequence(&a, 5, 3);
    eq.deschedule(&a);
    eq.scheduleWithSequence(&b, 5, 3); // a left: no collision
    eq.serviceOne();
    eq.scheduleWithSequence(&c, 5, 3); // b fired: no collision
    eq.serviceOne();
    EXPECT_EQ(log, (std::vector<int>{2, 3}));
}

TEST(EventQueueRestore, SequenceNotBelowNextSequenceDies)
{
    EventQueue eq;
    eq.restoreState(0, 10, 0);
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_SIM_ERROR(eq.scheduleWithSequence(&a, 5, 10),
                     "restored with sequence 10 >= next sequence 10");
    EXPECT_SIM_ERROR(eq.scheduleWithSequence(&a, 5, 11), ">= next");
    EXPECT_FALSE(a.scheduled());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueRestore, PastTickDies)
{
    EventQueue eq;
    eq.restoreState(100, 10, 0);
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_SIM_ERROR(eq.scheduleWithSequence(&a, 99, 2),
                     "restored at 99 in the past");
    EXPECT_FALSE(a.scheduled());
    eq.scheduleWithSequence(&a, 100, 2); // now is not the past
    eq.deschedule(&a);
}

TEST(EventQueueRestore, RestoreStateOnBusyQueueDies)
{
    EventQueue eq;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    eq.schedule(&a, 5);
    EXPECT_SIM_ERROR(eq.restoreState(0, 10, 0), "pending event");
    eq.deschedule(&a);
}

// ---------------------------------------------------------------------
// Differential: the heap against a reference ordered-set model.
// ---------------------------------------------------------------------

/**
 * Reference model: the ordered set the heap replaced, keyed by
 * (when, priority, sequence), mapping to the label an event logs when
 * it fires. Every operation is mirrored with the same sequence
 * numbering the queue uses, so the two must fire identical label
 * streams.
 */
struct RefQueue
{
    using Key = std::tuple<Tick, Event::Priority, std::uint64_t>;

    std::map<Key, int> pending;
    Tick now = 0;
    std::uint64_t next_seq = 0;

    Key
    add(Tick when, Event::Priority pri, int label)
    {
        Key k{when, pri, next_seq++};
        pending.emplace(k, label);
        return k;
    }
};

/** Pool event for the differential; a "spawner" also schedules a
 *  same-tick lambda from process(), as components do. */
class DiffEvent : public Event
{
  public:
    DiffEvent(EventQueue &eq, std::vector<int> &log, int id, Priority pri,
              bool spawner)
        : Event(pri), eq_(eq), log_(log), id_(id), spawner_(spawner)
    {
    }

    static int lambdaLabel(int id) { return 100000 + id; }
    static Priority lambdaPri(int id) { return (id % 3 - 1) * 50; }

    void
    process() override
    {
        log_.push_back(id_);
        if (spawner_) {
            std::vector<int> *log = &log_;
            int label = lambdaLabel(id_);
            eq_.scheduleLambda(
                eq_.curTick(), [log, label] { log->push_back(label); },
                lambdaPri(id_));
        }
    }

    bool spawner() const { return spawner_; }

  private:
    EventQueue &eq_;
    std::vector<int> &log_;
    int id_;
    bool spawner_;
};

TEST(EventQueueDifferential, MatchesOrderedSetUnderRandomOperations)
{
    constexpr int pool_size = 512;
    constexpr int operations = 200000;
    const Event::Priority pris[] = {Event::clock_pri, Event::default_pri,
                                    Event::default_pri, 7,
                                    Event::stat_pri};

    EventQueue eq;
    RefQueue ref;
    std::vector<int> log, expect;
    std::vector<std::unique_ptr<DiffEvent>> pool;
    std::vector<std::optional<RefQueue::Key>> ref_key(pool_size);
    Rng rng(0xe7e47, 3);
    for (int i = 0; i < pool_size; ++i)
        pool.push_back(std::make_unique<DiffEvent>(
            eq, log, i, pris[rng.range(5)], rng.bernoulli(0.25)));

    // Fire the model's earliest entry, with the same side effects the
    // queue's event has.
    auto refServiceOne = [&] {
        auto it = ref.pending.begin();
        auto [key, label] = *it;
        ref.pending.erase(it);
        ref.now = std::get<0>(key);
        expect.push_back(label);
        if (label < pool_size) {
            ref_key[label].reset();
            if (pool[label]->spawner())
                ref.add(ref.now, DiffEvent::lambdaPri(label),
                        DiffEvent::lambdaLabel(label));
        }
    };
    auto refServiceUntil = [&](Tick until) {
        while (!ref.pending.empty() &&
               std::get<0>(ref.pending.begin()->first) <= until)
            refServiceOne();
        ref.now = std::max(ref.now, until);
    };

    int lambdas = 0, deschedules = 0, busy_reschedules = 0;
    std::size_t max_pending = 0;
    for (int op = 0; op < operations; ++op) {
        int id = static_cast<int>(rng.range(pool_size));
        DiffEvent &ev = *pool[id];
        switch (rng.range(7)) {
          case 0: // schedule, when idle
          case 1: {
            if (ev.scheduled())
                break;
            Tick when = eq.curTick() + rng.range(600);
            eq.schedule(&ev, when);
            ref_key[id] = ref.add(when, ev.priority(), id);
            break;
          }
          case 2: { // deschedule, wherever it sits in the heap
            if (!ev.scheduled())
                break;
            eq.deschedule(&ev);
            ref.pending.erase(*ref_key[id]);
            ref_key[id].reset();
            ++deschedules;
            break;
          }
          case 3: { // reschedule, idle or scheduled
            Tick when = eq.curTick() + rng.range(600);
            if (ev.scheduled()) {
                ref.pending.erase(*ref_key[id]);
                ++busy_reschedules;
            }
            eq.reschedule(&ev, when);
            ref_key[id] = ref.add(when, ev.priority(), id);
            break;
          }
          case 4: { // fire-and-forget lambda, often at the current tick
            Tick when = eq.curTick() + (rng.bernoulli(0.5)
                                            ? 0
                                            : rng.range(20));
            Event::Priority pri = pris[rng.range(5)];
            int label = 200000 + lambdas++;
            eq.scheduleLambda(
                when, [&log, label] { log.push_back(label); }, pri);
            ref.add(when, pri, label);
            break;
          }
          case 5: { // advance time
            Tick until = eq.curTick() + rng.range(8);
            eq.serviceUntil(until);
            refServiceUntil(until);
            break;
          }
          case 6: // single step
            if (eq.serviceOne())
                refServiceOne();
            break;
        }
        ASSERT_EQ(eq.size(), ref.pending.size()) << "operation " << op;
        ASSERT_EQ(eq.curTick(), ref.now) << "operation " << op;
        ASSERT_EQ(eq.nextSequence(), ref.next_seq) << "operation " << op;
        if (!eq.empty()) {
            ASSERT_EQ(eq.nextTick(),
                      std::get<0>(ref.pending.begin()->first));
        }
        max_pending = std::max(max_pending, eq.size());
    }
    while (eq.serviceOne())
        refServiceOne();
    EXPECT_TRUE(ref.pending.empty());
    EXPECT_EQ(log, expect);
    // The run really exercised every path.
    EXPECT_GT(log.size(), 50000u);
    EXPECT_GT(deschedules, 5000);
    EXPECT_GT(busy_reschedules, 5000);
    EXPECT_GT(lambdas, 20000);
    EXPECT_GT(max_pending, 100u); // a heap four levels deep
}

} // namespace
