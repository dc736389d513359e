/**
 * @file
 * The discrete-event calendar: timestamped events with a deterministic
 * total order.
 *
 * Order is (time, insertion tick) — two events at the same instant pop
 * in the order they were scheduled, never in an implementation-defined
 * heap order. That tick is what makes the whole simulator's output
 * byte-reproducible: simultaneous arrival and completion events
 * (common with deterministic service times) would otherwise resolve
 * differently across standard libraries.
 *
 * The arrival stream is generated one event ahead, so the calendar
 * never holds more than one arrival. That arrival waits in a slot of
 * its own beside a binary min-heap that holds only completions, at
 * most one per busy chip. Both kinds take their tick from one counter
 * at push, and pop compares the slot with the heap's top under the
 * same (time, tick) order, so the pop sequence is exactly that of one
 * heap over both kinds.
 */

#ifndef CMSWITCH_SIM_SERVING_EVENT_QUEUE_HPP
#define CMSWITCH_SIM_SERVING_EVENT_QUEUE_HPP

#include <algorithm>
#include <vector>

#include "support/common.hpp"
#include "support/logging.hpp"

namespace cmswitch {

/** One calendar entry. */
struct SimEvent
{
    enum class Kind { kArrival, kCompletion };

    double time = 0.0;
    Kind kind = Kind::kArrival;
    std::size_t chip = 0; ///< completing chip (kCompletion only)
    u64 tick = 0;         ///< insertion order; assigned by the calendar
};

class EventCalendar
{
  public:
    /** Schedule @p event. At most one arrival may be pending. */
    void
    push(SimEvent event)
    {
        event.tick = nextTick_++;
        if (event.kind == SimEvent::Kind::kArrival) {
            cmswitch_assert(!hasArrival_,
                            "the calendar holds one pending arrival");
            arrival_ = event;
            hasArrival_ = true;
            return;
        }
        completions_.push_back(event);
        std::push_heap(completions_.begin(), completions_.end(), Later{});
    }

    /** Pop the earliest event; false when the calendar is empty. */
    bool
    pop(SimEvent *out)
    {
        if (hasArrival_
            && (completions_.empty()
                || Later{}(completions_.front(), arrival_))) {
            *out = arrival_;
            hasArrival_ = false;
            return true;
        }
        if (completions_.empty())
            return false;
        std::pop_heap(completions_.begin(), completions_.end(), Later{});
        *out = completions_.back();
        completions_.pop_back();
        return true;
    }

    bool empty() const { return !hasArrival_ && completions_.empty(); }
    std::size_t
    size() const
    {
        return completions_.size() + (hasArrival_ ? 1 : 0);
    }

  private:
    /** Max-heap comparator inverted: true when @p a runs after @p b. */
    struct Later
    {
        bool
        operator()(const SimEvent &a, const SimEvent &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.tick > b.tick;
        }
    };

    SimEvent arrival_;
    bool hasArrival_ = false;
    std::vector<SimEvent> completions_; ///< min-heap under Later
    u64 nextTick_ = 0;
};

} // namespace cmswitch

#endif // CMSWITCH_SIM_SERVING_EVENT_QUEUE_HPP
