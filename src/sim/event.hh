/**
 * @file
 * Discrete events. Components usually embed their events (gem5-style)
 * and reschedule them; one-shot lambda events are available through
 * EventQueue::scheduleLambda().
 */

#ifndef RASIM_SIM_EVENT_HH
#define RASIM_SIM_EVENT_HH

#include <cstdint>
#include <string>

#include "sim/callable.hh"
#include "sim/types.hh"

namespace rasim
{

class EventQueue;

/**
 * A schedulable unit of simulated work. Events are not owned by the
 * queue: the scheduling component keeps the event alive while it is
 * scheduled. Events ordered by (when, priority, insertion sequence),
 * so simultaneous events execute in a deterministic order.
 */
class Event
{
  public:
    using Priority = int;

    /** Priorities: smaller runs earlier within a tick. */
    static constexpr Priority clock_pri = -100;
    static constexpr Priority default_pri = 0;
    static constexpr Priority stat_pri = 100;
    static constexpr Priority exit_pri = 200;

    explicit Event(Priority pri = default_pri);
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Callback invoked when simulated time reaches when(). */
    virtual void process() = 0;

    /** Short human-readable description for tracing and errors. */
    virtual std::string description() const { return "generic event"; }

    /** Tick this event is scheduled for (valid while scheduled()). */
    Tick when() const { return when_; }

    /** True while on an event queue. */
    bool scheduled() const { return queue_ != nullptr; }

    Priority priority() const { return priority_; }

    /**
     * Insertion sequence assigned by the queue (valid while
     * scheduled()). Checkpoints record it so restored events keep
     * their same-tick ordering.
     */
    std::uint64_t sequence() const { return sequence_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    Priority priority_;
    /** Position in the queue's heap (valid while scheduled()). */
    std::uint32_t heap_pos_ = 0;
    std::uint64_t sequence_ = 0;
    EventQueue *queue_ = nullptr;
};

/**
 * Event that runs a bound callable; the canonical member-event:
 *
 *   EventFunctionWrapper retryEvent_{[this]{ retry(); }, "retry"};
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(InlineCallable callback,
                         std::string name = "function event",
                         Priority pri = default_pri);

    void process() override;
    std::string description() const override { return name_; }

  private:
    InlineCallable callback_;
    std::string name_;
};

} // namespace rasim

#endif // RASIM_SIM_EVENT_HH
