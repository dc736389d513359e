/**
 * @file
 * Admission gate + priority/deadline run queue for the serve daemon —
 * pure decision logic, no threads, no clock, no I/O.
 *
 * The daemon's capacity model is two numbers: max_inflight compiles
 * run at once (ServeEngine's worker count) and at most max_queue
 * requests wait behind them. This class owns the *waiting* half and
 * every policy decision about it:
 *
 *  - Admission: a request that arrives at a full queue is shed —
 *    unless it outranks the weakest waiter, in which case the weakest
 *    waiter is evicted (shed) to make room. The victim is the lowest
 *    priority ticket, newest first among equals, so FIFO fairness
 *    within a priority band is preserved and an incoming request can
 *    never displace an equal-priority one. Rejection order "priority
 *    then FIFO" is pinned by service_test.
 *  - Dispatch: pop() returns the highest-priority ticket; ties break
 *    to the earliest deadline (a deadline always outranks none), then
 *    FIFO by admission sequence.
 *  - Deadline expiry: pop() first sweeps out every ticket whose
 *    deadline has passed — an expired request is shed without ever
 *    compiling, no matter how briefly it would have run.
 *
 * Time is a caller-supplied double (seconds on any monotonic scale):
 * the engine passes steady_clock, unit tests pass a fake clock and
 * get fully deterministic shed decisions.
 *
 * Three binary heaps over one slot table index the waiting tickets:
 * a dispatch heap ordered by runsBefore() (the one ordering rule), a
 * (deadline, seq) heap of the deadline-bearing tickets for the expiry
 * sweep, and a (priority ascending, seq descending) heap whose top is
 * the victim. Removing a ticket only frees its slot: a heap entry is
 * live iff its slot still holds its seq, which is sound because seqs
 * are never reused. Stale entries are dropped when they surface at a
 * heap's top, and a heap that grows past 2·size()+32 entries is
 * rebuilt from its live entries, so a long-lived daemon's index stays
 * bounded. admit() and pop() cost O(log n) amortized in the waiting
 * tickets and allocate nothing once the vectors reach their working
 * size. serve_test checks every decision against the linear scans
 * this replaced.
 */

#ifndef CMSWITCH_SERVICE_SERVE_SERVE_QUEUE_HPP
#define CMSWITCH_SERVICE_SERVE_SERVE_QUEUE_HPP

#include <vector>

#include "support/common.hpp"

namespace cmswitch {

class ServeQueue
{
  public:
    /** @p maxQueue: waiting tickets held at once; must be >= 1. */
    explicit ServeQueue(s64 maxQueue);

    /** What admit() decided. */
    struct Admission
    {
        enum class Kind {
            kAdmitted,   ///< ticket queued
            kShedSelf,   ///< queue full, ticket does not outrank anyone
            kShedVictim, ///< ticket queued; @c victim was evicted for it
        };
        Kind kind = Kind::kAdmitted;
        u64 victim = 0; ///< evicted ticket (kShedVictim only)
    };

    /**
     * Offer ticket @p seq (arrival order: >= 1 and strictly greater
     * than every seq offered before, shed or not; fatal otherwise)
     * with @p priority (higher wins). @p hasDeadline / @p deadline
     * give its absolute expiry on the caller's clock.
     */
    Admission admit(u64 seq, s64 priority, bool hasDeadline,
                    double deadline);

    /**
     * Sweep out every ticket whose deadline is at or before @p now
     * (appended to @p expired in arrival order), then pop the best
     * remaining ticket into @p seq. Returns false when the sweep
     * leaves the queue empty.
     */
    bool pop(double now, u64 *seq, std::vector<u64> *expired);

    s64 size() const { return size_; }
    bool empty() const { return size_ == 0; }
    s64 maxQueue() const { return maxQueue_; }

  private:
    struct Ticket
    {
        u64 seq = 0;
        s64 priority = 0;
        double deadline = 0.0;
        u32 slot = 0; ///< index into slotSeq_
        bool hasDeadline = false;
    };

    /** True when @p a should run before @p b. */
    static bool runsBefore(const Ticket &a, const Ticket &b);

    /** @{ Heap orders (a std heap keeps its greatest entry on top). */
    struct DispatchOrder;
    struct ExpiryOrder;
    struct VictimOrder;
    /** @} */

    bool live(const Ticket &ticket) const
    {
        return slotSeq_[ticket.slot] == ticket.seq;
    }

    /** Drop stale entries off the top of @p heap. */
    template <typename Order> void pruneTop(std::vector<Ticket> &heap);

    /** Remove the top entry of @p heap. */
    template <typename Order> static void popTop(std::vector<Ticket> &heap);

    /** Rebuild @p heap from its live entries once it holds more than
     *  2·size()+32 entries. */
    template <typename Order> void compact(std::vector<Ticket> &heap);

    /** Free @p ticket's slot: every heap entry of it turns stale. */
    void release(const Ticket &ticket);

    /** compact() each heap. */
    void compactHeaps();

    std::vector<Ticket> dispatch_; ///< top: runs first
    std::vector<Ticket> expiry_;   ///< deadline-bearing; top: expires first
    std::vector<Ticket> victim_;   ///< top: lowest priority, newest
    std::vector<u64> slotSeq_;     ///< seq held by each slot; 0 = free
    std::vector<u32> freeSlots_;
    u64 lastSeq_ = 0;
    s64 size_ = 0;
    s64 maxQueue_;
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_SERVE_SERVE_QUEUE_HPP
