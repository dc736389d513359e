#include "service/serve/serve_queue.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace cmswitch {

struct ServeQueue::DispatchOrder
{
    bool
    operator()(const Ticket &a, const Ticket &b) const
    {
        return runsBefore(b, a);
    }
};

struct ServeQueue::ExpiryOrder
{
    bool
    operator()(const Ticket &a, const Ticket &b) const
    {
        if (a.deadline != b.deadline)
            return a.deadline > b.deadline;
        return a.seq > b.seq;
    }
};

struct ServeQueue::VictimOrder
{
    // Lowest priority loses; among equals the *newest* (highest seq)
    // loses, so earlier arrivals keep their place — shedding is
    // "priority then FIFO".
    bool
    operator()(const Ticket &a, const Ticket &b) const
    {
        if (a.priority != b.priority)
            return a.priority > b.priority;
        return a.seq < b.seq;
    }
};

ServeQueue::ServeQueue(s64 maxQueue) : maxQueue_(maxQueue)
{
    cmswitch_fatal_if(maxQueue < 1,
                      "serve queue needs maxQueue >= 1, got ", maxQueue);
}

template <typename Order>
void
ServeQueue::pruneTop(std::vector<Ticket> &heap)
{
    while (!heap.empty() && !live(heap.front()))
        popTop<Order>(heap);
}

template <typename Order>
void
ServeQueue::popTop(std::vector<Ticket> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), Order());
    heap.pop_back();
}

template <typename Order>
void
ServeQueue::compact(std::vector<Ticket> &heap)
{
    if (static_cast<s64>(heap.size()) <= 2 * size_ + 32)
        return;
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [this](const Ticket &t) { return !live(t); }),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), Order());
}

void
ServeQueue::compactHeaps()
{
    compact<DispatchOrder>(dispatch_);
    compact<ExpiryOrder>(expiry_);
    compact<VictimOrder>(victim_);
}

void
ServeQueue::release(const Ticket &ticket)
{
    slotSeq_[ticket.slot] = 0;
    freeSlots_.push_back(ticket.slot);
    --size_;
}

ServeQueue::Admission
ServeQueue::admit(u64 seq, s64 priority, bool hasDeadline, double deadline)
{
    // Seqs are never reused, so a freed slot can never read as live
    // to a stale heap entry.
    cmswitch_fatal_if(seq <= lastSeq_,
                      "serve queue seqs must be >= 1 and strictly "
                      "increasing: got ",
                      seq, " after ", lastSeq_);
    lastSeq_ = seq;
    Admission out;
    if (size_ >= maxQueue_) {
        pruneTop<VictimOrder>(victim_);
        const Ticket &weakest = victim_.front();
        // Strictly higher priority displaces; equal never does — an
        // arrival must not bump a peer that got there first.
        if (priority <= weakest.priority) {
            out.kind = Admission::Kind::kShedSelf;
            return out;
        }
        out.kind = Admission::Kind::kShedVictim;
        out.victim = weakest.seq;
        release(weakest);
        popTop<VictimOrder>(victim_);
    }

    Ticket ticket;
    ticket.seq = seq;
    ticket.priority = priority;
    ticket.deadline = deadline;
    ticket.hasDeadline = hasDeadline;
    if (freeSlots_.empty()) {
        ticket.slot = static_cast<u32>(slotSeq_.size());
        slotSeq_.push_back(seq);
    } else {
        ticket.slot = freeSlots_.back();
        freeSlots_.pop_back();
        slotSeq_[ticket.slot] = seq;
    }
    ++size_;
    dispatch_.push_back(ticket);
    std::push_heap(dispatch_.begin(), dispatch_.end(), DispatchOrder());
    victim_.push_back(ticket);
    std::push_heap(victim_.begin(), victim_.end(), VictimOrder());
    if (hasDeadline) {
        expiry_.push_back(ticket);
        std::push_heap(expiry_.begin(), expiry_.end(), ExpiryOrder());
    }
    compactHeaps();
    return out;
}

bool
ServeQueue::runsBefore(const Ticket &a, const Ticket &b)
{
    if (a.priority != b.priority)
        return a.priority > b.priority;
    // Within a band, urgency: a ticket with a deadline outranks one
    // without, earlier deadlines first.
    if (a.hasDeadline != b.hasDeadline)
        return a.hasDeadline;
    if (a.hasDeadline && a.deadline != b.deadline)
        return a.deadline < b.deadline;
    return a.seq < b.seq; // FIFO
}

bool
ServeQueue::pop(double now, u64 *seq, std::vector<u64> *expired)
{
    // Expiry sweep first: a ticket whose deadline passed while it
    // waited must never reach a worker, even if it would have been
    // popped this very call. The heap yields expiry order; callers
    // get arrival order.
    std::size_t firstExpired = expired->size();
    for (;;) {
        pruneTop<ExpiryOrder>(expiry_);
        if (expiry_.empty() || !(expiry_.front().deadline <= now))
            break;
        expired->push_back(expiry_.front().seq);
        release(expiry_.front());
        popTop<ExpiryOrder>(expiry_);
    }
    std::sort(expired->begin()
                  + static_cast<std::ptrdiff_t>(firstExpired),
              expired->end());

    bool got = size_ > 0;
    if (got) {
        pruneTop<DispatchOrder>(dispatch_);
        *seq = dispatch_.front().seq;
        release(dispatch_.front());
        popTop<DispatchOrder>(dispatch_);
    }
    compactHeaps(); // removals shrink the bound too
    return got;
}

} // namespace cmswitch
