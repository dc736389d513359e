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
 * Every distinct waiting priority has a band. A band keeps two lists
 * of its tickets: `arrivals`, all of them in seq order (a vector with
 * a consumed head), and `timed`, its deadline-bearing ones as a
 * (deadline, seq) min-heap. Open bands sit in a vector sorted by
 * priority, so the weakest band is the first and the one to serve
 * the last. A full queue sheds an arrival that does not outrank the
 * weakest band without touching a list, and evicts the weakest band's
 * newest ticket from the back of its arrivals. pop() serves the
 * strongest band's timed top, or its oldest arrival when it has no
 * deadline-bearing ticket. Removing a ticket only frees its slot: a
 * list entry is live iff its slot still holds its seq, which is sound
 * because seqs are never reused. Dead entries are dropped when they
 * surface at a list's end, and a list that grows past 2·live+32
 * entries is rebuilt from its live ones. A band that empties goes
 * back to a pool with its capacity, and its priority takes the same
 * band back when it returns, so the queue allocates nothing once its
 * vectors reach their working size. admit() and pop() cost O(log n)
 * amortized in the waiting tickets, plus O(B) to open or close a band
 * and for pop()'s expiry sweep, where B is the most distinct
 * priorities that have waited at once (a few in every caller, never
 * more than maxQueue). A ticket without a deadline costs O(1) from
 * admission to removal. serve_test checks every decision against the
 * linear scans the indexed queue replaced.
 *
 * Slots: admit() names each ticket it queues by a slot as well as its
 * seq. A slot is a dense index below the largest number of tickets
 * that have waited at once, so a caller can keep per-ticket data in a
 * plain vector. It is valid from the admission that returns it until
 * the ticket leaves (evicted, expired or popped); after that the next
 * admission may hand it out again, possibly in the very Admission
 * that names the ticket as its victim. So read a leaving ticket's
 * data before storing the next admitted ticket's.
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

    /** A waiting ticket: its seq and the slot it holds. */
    struct Handle
    {
        u64 seq = 0;
        u32 slot = 0;
    };

    /** What admit() decided. */
    struct Admission
    {
        enum class Kind {
            kAdmitted,   ///< ticket queued
            kShedSelf,   ///< queue full, ticket does not outrank anyone
            kShedVictim, ///< ticket queued; @c victim was evicted for it
        };
        Kind kind = Kind::kAdmitted;
        u32 slot = 0;  ///< the queued ticket's slot (not kShedSelf)
        Handle victim; ///< evicted ticket (kShedVictim only)
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
     * remaining ticket into @p popped. Returns false when the sweep
     * leaves the queue empty.
     */
    bool pop(double now, Handle *popped, std::vector<Handle> *expired);

    s64 size() const { return size_; }
    bool empty() const { return size_ == 0; }
    s64 maxQueue() const { return maxQueue_; }

  private:
    struct Arrival
    {
        u64 seq = 0;
        u32 slot = 0;
        bool hasDeadline = false;
    };

    struct Timed
    {
        double deadline = 0.0;
        u64 seq = 0;
        u32 slot = 0;
    };

    /** std heap order that keeps the (deadline, seq) minimum on top. */
    struct Later;

    /** The waiting tickets of one priority. */
    struct Band
    {
        s64 live = 0;      ///< waiting tickets
        s64 liveTimed = 0; ///< ... of which bear a deadline
        std::vector<Arrival> arrivals; ///< seq order; [0, head) consumed
        std::size_t head = 0;
        std::vector<Timed> timed; ///< heap under Later
    };

    /** A band and the priority it holds (open) or last held (pooled). */
    struct BandRef
    {
        s64 priority = 0;
        u32 band = 0;
    };

    bool live(u64 seq, u32 slot) const { return slotSeq_[slot] == seq; }

    /** The open band of @p priority, opened from the pool if none. */
    u32 bandFor(s64 priority);

    /** Give the emptied band open_[@p at] back to the pool. */
    void close(std::size_t at);

    /** Drop dead entries off @p band's timed top. */
    void pruneTimed(Band &band);

    /** Pop @p band's timed top, which must be live. */
    static Timed popTimed(Band &band);

    /** Free @p slot and count its ticket out of @p band. */
    void release(Band &band, u32 slot, bool hasDeadline);

    /** Rebuild each list of @p band holding more than 2·live+32. */
    void compact(Band &band);

    std::vector<Band> bands_;   ///< open and pooled
    std::vector<BandRef> open_; ///< open bands, priority ascending
    std::vector<BandRef> pool_; ///< closed bands, capacity kept
    std::vector<u64> slotSeq_;  ///< seq held by each slot; 0 = free
    std::vector<u32> freeSlots_;
    u64 lastSeq_ = 0;
    s64 size_ = 0;
    s64 maxQueue_;
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_SERVE_SERVE_QUEUE_HPP
