/**
 * @file
 * Tests for the serve daemon's building blocks: the ServeQueue
 * admission gate (priority-then-FIFO rejection order, deadline expiry
 * while queued — both driven by a fake clock, fully deterministic —
 * seeded differential streams against the linear-scan queue it
 * replaced, the slots it hands out, and a warm queue that allocates
 * nothing),
 * the strict wire-protocol parser/resolver, and the ServeEngine's
 * status-v3 report under a fixed hold/release request script
 * (cumulative quantiles on demand, interval deltas only on periodic
 * lines). The two-process socket path is covered by serve_smoke (e2e).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "service/serve/serve_engine.hpp"
#include "service/serve/serve_protocol.hpp"
#include "service/serve/serve_queue.hpp"
#include "support/json_parse.hpp"

namespace {

/** Global operator new calls in this process, for the warm-queue test. */
std::atomic<long long> gNewCalls{0};

} // namespace

// Counting replacements of the global allocation functions. They stay
// out of line: inlined, GCC would pair a free() with the operator new
// that the caller sees and warn of a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace cmswitch {
namespace {

using Kind = ServeQueue::Admission::Kind;
using Handle = ServeQueue::Handle;

std::vector<u64>
seqsOf(const std::vector<Handle> &tickets)
{
    std::vector<u64> seqs;
    for (const Handle &ticket : tickets)
        seqs.push_back(ticket.seq);
    return seqs;
}

TEST(ServeQueue, RejectionOrderIsPriorityThenFifo)
{
    ServeQueue queue(2);
    EXPECT_EQ(queue.admit(1, 5, false, 0.0).kind, Kind::kAdmitted);
    EXPECT_EQ(queue.admit(2, 5, false, 0.0).kind, Kind::kAdmitted);

    // Equal priority never displaces a waiter: FIFO within the band.
    EXPECT_EQ(queue.admit(3, 5, false, 0.0).kind, Kind::kShedSelf);
    // Lower priority sheds itself.
    EXPECT_EQ(queue.admit(4, 1, false, 0.0).kind, Kind::kShedSelf);
    EXPECT_EQ(queue.size(), 2);

    // Strictly higher priority evicts the weakest waiter; among the
    // equal-priority band the *newest* loses (seq 2, not seq 1).
    ServeQueue::Admission eviction = queue.admit(5, 9, false, 0.0);
    EXPECT_EQ(eviction.kind, Kind::kShedVictim);
    EXPECT_EQ(eviction.victim.seq, 2u);
    EXPECT_EQ(queue.size(), 2);
}

TEST(ServeQueue, VictimComesFromTheLowestPriorityBand)
{
    ServeQueue queue(3);
    queue.admit(1, 5, false, 0.0);
    queue.admit(2, 1, false, 0.0);
    queue.admit(3, 5, false, 0.0);
    ServeQueue::Admission eviction = queue.admit(4, 9, false, 0.0);
    EXPECT_EQ(eviction.kind, Kind::kShedVictim);
    EXPECT_EQ(eviction.victim.seq, 2u);
}

TEST(ServeQueue, PopOrdersByPriorityDeadlineThenFifo)
{
    ServeQueue queue(8);
    queue.admit(1, 0, false, 0.0);
    queue.admit(2, 5, false, 0.0);
    queue.admit(3, 5, true, 9.0);
    queue.admit(4, 5, true, 4.0);
    queue.admit(5, 9, false, 0.0);
    queue.admit(6, 0, false, 0.0);

    // Priority first; within a band a deadline outranks none and the
    // earlier deadline wins; all else FIFO by admission sequence.
    std::vector<Handle> expired;
    std::vector<u64> order;
    Handle popped;
    while (queue.pop(0.0, &popped, &expired))
        order.push_back(popped.seq);
    EXPECT_TRUE(expired.empty());
    EXPECT_EQ(order, (std::vector<u64>{5, 4, 3, 2, 1, 6}));
}

TEST(ServeQueue, PopShedsExpiredTicketsBeforeSelecting)
{
    ServeQueue queue(4);
    // Seq 1 would be popped first (highest priority) — but its
    // deadline has passed, so it must be shed, never dispatched.
    queue.admit(1, 9, true, 1.0);
    queue.admit(2, 0, false, 0.0);

    std::vector<Handle> expired;
    Handle popped;
    ASSERT_TRUE(queue.pop(2.0, &popped, &expired));
    EXPECT_EQ(seqsOf(expired), std::vector<u64>{1});
    EXPECT_EQ(popped.seq, 2u);

    // A deadline exactly at `now` counts as expired, and a sweep that
    // empties the queue reports so.
    queue.admit(3, 5, true, 3.0);
    expired.clear();
    EXPECT_FALSE(queue.pop(3.0, &popped, &expired));
    EXPECT_EQ(seqsOf(expired), std::vector<u64>{3});
    EXPECT_TRUE(queue.empty());
}

/**
 * The linear-scan ServeQueue that the indexed one replaced, kept
 * verbatim as the differential oracle: every admission and pop of the
 * library queue must match it. O(n) per operation, which is why it
 * lives here and not in the library. It names tickets by seq only.
 */
class ReferenceServeQueue
{
  public:
    explicit ReferenceServeQueue(s64 maxQueue) : maxQueue_(maxQueue) {}

    struct Admission
    {
        Kind kind = Kind::kAdmitted;
        u64 victim = 0;
    };

    struct Ticket
    {
        u64 seq = 0;
        s64 priority = 0;
        bool hasDeadline = false;
        double deadline = 0.0;
    };

    Admission
    admit(u64 seq, s64 priority, bool hasDeadline, double deadline)
    {
        Admission out;
        if (static_cast<s64>(tickets_.size()) >= maxQueue_) {
            std::size_t victim = victimIndex();
            // Strictly higher priority displaces; equal never does — an
            // arrival must not bump a peer that got there first.
            if (priority <= tickets_[victim].priority) {
                out.kind = Kind::kShedSelf;
                return out;
            }
            out.kind = Kind::kShedVictim;
            out.victim = tickets_[victim].seq;
            tickets_.erase(tickets_.begin()
                           + static_cast<std::ptrdiff_t>(victim));
        }
        tickets_.push_back({seq, priority, hasDeadline, deadline});
        return out;
    }

    bool
    pop(double now, u64 *seq, std::vector<u64> *expired)
    {
        // Expiry sweep first: a ticket whose deadline passed while it
        // waited must never reach a worker, even if it would have been
        // popped this very call.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < tickets_.size(); ++i) {
            if (tickets_[i].hasDeadline && tickets_[i].deadline <= now) {
                expired->push_back(tickets_[i].seq);
            } else {
                tickets_[kept++] = tickets_[i];
            }
        }
        tickets_.resize(kept);
        if (tickets_.empty())
            return false;

        std::size_t best = 0;
        for (std::size_t i = 1; i < tickets_.size(); ++i) {
            if (runsBefore(tickets_[i], tickets_[best]))
                best = i;
        }
        *seq = tickets_[best].seq;
        tickets_.erase(tickets_.begin()
                       + static_cast<std::ptrdiff_t>(best));
        return true;
    }

    s64 size() const { return static_cast<s64>(tickets_.size()); }

    /** True when @p a should run before @p b. */
    static bool
    runsBefore(const Ticket &a, const Ticket &b)
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

  private:
    /** Index of the weakest ticket (lowest priority, newest first). */
    std::size_t
    victimIndex() const
    {
        // Lowest priority loses; among equals the *newest* (highest seq)
        // loses, so earlier arrivals keep their place — shedding is
        // "priority then FIFO". tickets_ is seq-ascending, so a strict
        // <= on priority while scanning forward lands on the last
        // (newest) ticket of the weakest band.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < tickets_.size(); ++i) {
            if (tickets_[i].priority <= tickets_[victim].priority)
                victim = i;
        }
        return victim;
    }

    std::vector<Ticket> tickets_; ///< arrival order (seq ascending)
    s64 maxQueue_;
};

/** One seeded admit/pop stream's shape. */
struct QueueStream
{
    u64 seed = 0;
    s64 maxQueue = 1;
    bool widePriorities = false; ///< s64 extremes, not just {0, 1}
    bool deadlines = false;
    s64 ops = 0;
};

/** A ticket drawn the way QueueStream says. */
ReferenceServeQueue::Ticket
drawTicket(std::mt19937_64 &rng, const QueueStream &stream, u64 seq,
           double now)
{
    static constexpr s64 kEdges[] = {
        std::numeric_limits<s64>::min(), -1, 0, 1,
        std::numeric_limits<s64>::max()};
    ReferenceServeQueue::Ticket t;
    t.seq = seq;
    if (!stream.widePriorities)
        t.priority = static_cast<s64>(rng() % 2);
    else if (rng() % 2 == 0)
        t.priority = kEdges[rng() % 5];
    else
        t.priority = static_cast<s64>(rng());
    // Deadlines sit on a half-second grid from `now` on, so equal
    // deadlines and deadline == now are common. A ticket without one
    // still carries a junk deadline, which both queues must ignore.
    t.hasDeadline = stream.deadlines && rng() % 2 == 0;
    t.deadline = now + 0.5 * static_cast<double>(rng() % 9);
    return t;
}

/** How often a stream reached each decision. */
struct QueueStreamTally
{
    s64 shedSelf = 0;
    s64 victims = 0;
    s64 pops = 0;
    s64 emptyPops = 0;
    s64 expired = 0;
};

/**
 * Drive ServeQueue and the reference with one seeded stream and
 * compare them op for op: every admission (kind and victim), every
 * pop (result, seq, expired list) and size(). The admit share swings
 * between phases so the queue both fills up (shedding, evicting) and
 * drains (pops on an empty queue). A slot -> seq map of the waiting
 * tickets checks the slots as well: each admission takes a free slot
 * below the peak count of waiting tickets, and every victim, popped
 * and expired ticket carries the slot it was admitted with.
 */
QueueStreamTally
expectSameDecisions(const QueueStream &stream)
{
    SCOPED_TRACE(::testing::Message()
                 << "seed " << stream.seed << ", maxQueue "
                 << stream.maxQueue << ", wide " << stream.widePriorities
                 << ", deadlines " << stream.deadlines);
    std::mt19937_64 rng(stream.seed);
    ServeQueue queue(stream.maxQueue);
    ReferenceServeQueue reference(stream.maxQueue);
    u64 nextSeq = 1;
    double now = 0.0;
    std::vector<Handle> expired;
    std::vector<u64> referenceExpired;
    std::map<u32, u64> waitingBySlot;
    s64 peak = 0; // most tickets that have waited at once
    auto leave = [&](const Handle &ticket, const char *how) {
        auto it = waitingBySlot.find(ticket.slot);
        EXPECT_TRUE(it != waitingBySlot.end() && it->second == ticket.seq)
            << how << " seq " << ticket.seq << " names slot " << ticket.slot
            << ", which it was not admitted with";
        if (it != waitingBySlot.end())
            waitingBySlot.erase(it);
    };
    QueueStreamTally tally;
    const s64 phase = std::max<s64>(8, 4 * stream.maxQueue);
    for (s64 op = 0; op < stream.ops; ++op) {
        if (rng() % 4 == 0)
            now += 0.5 * static_cast<double>(rng() % 3);
        const u64 admitPercent = (op / phase) % 2 == 0 ? 90 : 20;
        if (rng() % 100 < admitPercent) {
            ReferenceServeQueue::Ticket t =
                drawTicket(rng, stream, nextSeq++, now);
            ServeQueue::Admission got =
                queue.admit(t.seq, t.priority, t.hasDeadline, t.deadline);
            ReferenceServeQueue::Admission want = reference.admit(
                t.seq, t.priority, t.hasDeadline, t.deadline);
            EXPECT_EQ(got.kind, want.kind) << "admit of seq " << t.seq;
            if (want.kind == Kind::kShedVictim) {
                EXPECT_EQ(got.victim.seq, want.victim)
                    << "admit of seq " << t.seq;
                leave(got.victim, "victim");
            }
            if (want.kind != Kind::kShedSelf) {
                peak = std::max(peak, reference.size());
                EXPECT_LT(static_cast<s64>(got.slot), peak)
                    << "admit of seq " << t.seq;
                EXPECT_EQ(waitingBySlot.count(got.slot), 0u)
                    << "seq " << t.seq << " was admitted to slot "
                    << got.slot << ", which is not free";
                waitingBySlot[got.slot] = t.seq;
            }
            tally.shedSelf += want.kind == Kind::kShedSelf;
            tally.victims += want.kind == Kind::kShedVictim;
        } else {
            expired.clear();
            referenceExpired.clear();
            Handle popped;
            u64 referenceSeq = 0;
            bool got = queue.pop(now, &popped, &expired);
            bool want = reference.pop(now, &referenceSeq, &referenceExpired);
            EXPECT_EQ(got, want) << "pop at op " << op;
            EXPECT_EQ(popped.seq, referenceSeq) << "pop at op " << op;
            EXPECT_EQ(seqsOf(expired), referenceExpired) << "pop at op " << op;
            for (const Handle &ticket : expired)
                leave(ticket, "expired");
            if (got)
                leave(popped, "popped");
            tally.pops += want;
            tally.emptyPops += !want;
            tally.expired += static_cast<s64>(referenceExpired.size());
        }
        EXPECT_EQ(queue.size(), reference.size()) << "after op " << op;
        EXPECT_EQ(queue.empty(), reference.size() == 0);
        EXPECT_EQ(static_cast<s64>(waitingBySlot.size()), reference.size());
        if (::testing::Test::HasFailure())
            break; // the first divergence is the one worth reading
    }
    return tally;
}

/** Every stream must reach the decisions it is built to reach. */
void
expectCoverage(const QueueStream &stream, const QueueStreamTally &tally)
{
    EXPECT_GT(tally.shedSelf, 0) << "seed " << stream.seed;
    EXPECT_GT(tally.victims, 0) << "seed " << stream.seed;
    EXPECT_GT(tally.pops, 0) << "seed " << stream.seed;
    EXPECT_GT(tally.emptyPops, 0) << "seed " << stream.seed;
    EXPECT_EQ(tally.expired > 0, stream.deadlines) << "seed " << stream.seed;
}

TEST(ServeQueue, MatchesLinearScanReferenceOnSeededStreams)
{
    u64 seed = 1;
    for (s64 maxQueue : {1, 2, 3, 64, 4096}) {
        // The reference costs O(maxQueue) per op; the big queue gets a
        // stream long enough to fill, shed, drain and fill again.
        const s64 ops = maxQueue == 4096 ? 40000 : 20000;
        for (bool wide : {false, true}) {
            for (bool deadlines : {false, true}) {
                QueueStream stream{seed++, maxQueue, wide, deadlines, ops};
                expectCoverage(stream, expectSameDecisions(stream));
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

TEST(ServeQueue, MatchesReferenceOverAMillionOpsAtMaxQueue4)
{
    // A small, always-busy queue: the dead-entry bound forces a list
    // rebuild every few hundred operations, so this stream cycles it
    // thousands of times.
    QueueStream stream{2026, 4, true, true, 1000000};
    expectCoverage(stream, expectSameDecisions(stream));
}

TEST(ServeQueue, FillAndDrainFollowsRunsBefore)
{
    // 200k waiting tickets: quadratic for a linear scan, so checked by
    // property instead of against the reference — every pop must run
    // before the next, and every ticket comes out exactly once.
    constexpr s64 kTickets = 200000;
    std::mt19937_64 rng(77);
    ServeQueue queue(kTickets);
    std::vector<ReferenceServeQueue::Ticket> tickets(kTickets + 1);
    QueueStream stream{0, kTickets, true, true, 0};
    for (u64 seq = 1; seq <= static_cast<u64>(kTickets); ++seq) {
        tickets[seq] = drawTicket(rng, stream, seq, 1.0);
        // Narrow bands, so ties fall through to the deadline and seq.
        tickets[seq].priority %= 50;
        ASSERT_EQ(queue.admit(seq, tickets[seq].priority,
                              tickets[seq].hasDeadline,
                              tickets[seq].deadline)
                      .kind,
                  ServeQueue::Admission::Kind::kAdmitted);
    }
    ASSERT_EQ(queue.size(), kTickets);

    std::vector<bool> seen(kTickets + 1, false);
    std::vector<Handle> expired;
    u64 previous = 0;
    Handle ticket;
    s64 popped = 0;
    while (queue.pop(0.0, &ticket, &expired)) { // before every deadline
        const u64 seq = ticket.seq;
        ASSERT_GE(seq, 1u);
        ASSERT_LE(seq, static_cast<u64>(kTickets));
        ASSERT_FALSE(seen[seq]) << "seq " << seq << " popped twice";
        seen[seq] = true;
        if (previous != 0) {
            ASSERT_TRUE(ReferenceServeQueue::runsBefore(tickets[previous],
                                                        tickets[seq]))
                << "seq " << previous << " popped before seq " << seq;
        }
        previous = seq;
        ++popped;
    }
    EXPECT_TRUE(expired.empty());
    EXPECT_EQ(popped, kTickets);
    EXPECT_TRUE(queue.empty());
}

/** One recorded operation of a sim_fleet-shaped stream. */
struct QueueOp
{
    bool admit = false;
    s64 priority = 0; ///< 1 bears a deadline, 0 none
    double now = 0.0;
};

/**
 * Replay @p ops through @p queue with seqs after @p seqBase and times
 * after @p timeBase, then drain it. Returns an FNV-style digest of
 * every decision relative to the bases, and allocates nothing itself
 * once @p expired has grown.
 */
u64
replay(ServeQueue &queue, const std::vector<QueueOp> &ops, u64 seqBase,
       double timeBase, double deadlineSeconds,
       std::vector<Handle> *expired, QueueStreamTally *tally)
{
    u64 digest = 0xcbf29ce484222325ull;
    auto mix = [&digest](u64 value) {
        digest = (digest ^ value) * 0x100000001b3ull;
    };
    u64 seq = seqBase;
    double now = timeBase;
    auto pop = [&] {
        expired->clear();
        Handle popped;
        bool got = queue.pop(now, &popped, expired);
        for (const Handle &ticket : *expired)
            mix(ticket.seq - seqBase);
        mix(got ? popped.seq - seqBase : 0);
        tally->expired += static_cast<s64>(expired->size());
        tally->pops += got;
        return got;
    };
    for (const QueueOp &op : ops) {
        now = timeBase + op.now;
        if (op.admit) {
            ServeQueue::Admission admission =
                queue.admit(++seq, op.priority, op.priority == 1,
                            now + deadlineSeconds);
            mix(static_cast<u64>(admission.kind));
            if (admission.kind == Kind::kShedVictim)
                mix(admission.victim.seq - seqBase);
            tally->shedSelf += admission.kind == Kind::kShedSelf;
            tally->victims += admission.kind == Kind::kShedVictim;
        } else {
            pop();
        }
    }
    while (pop()) {
    }
    return digest;
}

TEST(ServeQueue, SecondPassAllocatesNothing)
{
    // sim_fleet's shape: plain priority-0 tickets and priority-1
    // tickets with a constant relative deadline, maxQueue 64, and
    // phases that fill the queue (shedding, evicting, expiring) and
    // drain it. Times sit on a 1/1024 s grid, so shifting a pass by a
    // whole number of seconds changes no comparison.
    constexpr s64 kOps = 100000;
    constexpr double kDeadline = 40.0 / 1024.0;
    std::mt19937_64 rng(2027);
    std::vector<QueueOp> ops;
    double now = 0.0;
    for (s64 op = 0; op < kOps; ++op) {
        now += static_cast<double>(rng() % 4) / 1024.0;
        const u64 admitPercent = (op / 2000) % 2 == 0 ? 85 : 30;
        QueueOp next;
        next.admit = rng() % 100 < admitPercent;
        next.priority = rng() % 10 < 4 ? 1 : 0;
        next.now = now;
        ops.push_back(next);
    }

    ServeQueue queue(64);
    std::vector<Handle> expired;
    QueueStreamTally first, second;
    const long long before = gNewCalls.load();
    u64 firstDigest =
        replay(queue, ops, 0, 0.0, kDeadline, &expired, &first);
    const long long firstNews = gNewCalls.load() - before;
    ASSERT_TRUE(queue.empty());
    u64 secondDigest = replay(queue, ops, static_cast<u64>(kOps),
                              std::ceil(now) + 1.0, kDeadline, &expired,
                              &second);
    const long long secondNews = gNewCalls.load() - before - firstNews;

    EXPECT_GT(firstNews, 0) << "the counter must see the queue grow";
    EXPECT_EQ(secondNews, 0) << "a warm queue allocated";
    EXPECT_EQ(secondDigest, firstDigest) << "the passes decided differently";
    EXPECT_GT(first.shedSelf, 0);
    EXPECT_GT(first.victims, 0);
    EXPECT_GT(first.expired, 0);
    EXPECT_GT(first.pops, 0);
}

TEST(ServeQueueDeath, SeqsMustBePositiveAndStrictlyIncreasing)
{
    EXPECT_DEATH(ServeQueue(4).admit(0, 0, false, 0.0), "strictly");
    ServeQueue queue(1);
    queue.admit(5, 0, false, 0.0);
    queue.admit(6, 0, false, 0.0); // shed, but its seq is spent
    EXPECT_DEATH(queue.admit(6, 1, false, 0.0), "strictly");
    EXPECT_DEATH(queue.admit(3, 1, false, 0.0), "strictly");
}

TEST(ServeProtocol, ParseIsStrict)
{
    ServeRequest request;
    std::string error;
    EXPECT_FALSE(parseServeRequest("not json", &request, &error));
    EXPECT_FALSE(parseServeRequest("[1,2]", &request, &error));
    EXPECT_FALSE(parseServeRequest(R"({"id":"x"})", &request, &error));
    EXPECT_FALSE(
        parseServeRequest(R"({"op":"fly","id":"x"})", &request, &error));
    // Compile needs a non-empty id and a model.
    EXPECT_FALSE(parseServeRequest(R"({"op":"compile","model":"vgg16"})",
                                   &request, &error));
    EXPECT_FALSE(parseServeRequest(R"({"op":"compile","id":"a"})",
                                   &request, &error));
    // Unknown keys are errors, not silently dropped typos.
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"compile","id":"a","model":"vgg16","prio":3})", &request,
        &error));
    EXPECT_NE(error.find("prio"), std::string::npos);
    // Compile-only keys are rejected on other ops.
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"status","id":"s","model":"vgg16"})", &request, &error));
    // Wrong types and out-of-range values are errors.
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"compile","id":"a","model":"vgg16","batch":"two"})",
        &request, &error));
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"compile","id":"a","model":"vgg16","deadline_ms":-1})",
        &request, &error));
}

TEST(ServeProtocol, ParseReadsEveryCompileField)
{
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"op":"compile","id":"r1","model":"bert-base","chip":"prime",)"
        R"("compiler":"occ","batch":2,"seq":128,"layers":3,)"
        R"("optimize":true,"priority":-7,"deadline_ms":250})",
        &request, &error))
        << error;
    EXPECT_EQ(request.op, ServeRequest::Op::kCompile);
    EXPECT_EQ(request.id, "r1");
    EXPECT_EQ(request.model, "bert-base");
    EXPECT_EQ(request.chip, "prime");
    EXPECT_EQ(request.compiler, "occ");
    EXPECT_EQ(request.batch, 2);
    EXPECT_EQ(request.seq, 128);
    EXPECT_EQ(request.layers, 3);
    EXPECT_TRUE(request.optimize);
    EXPECT_EQ(request.priority, -7);
    EXPECT_TRUE(request.hasDeadline);
    EXPECT_EQ(request.deadlineMs, 250);

    // Deadline absent != deadline 0: only presence arms the expiry.
    ASSERT_TRUE(parseServeRequest(
        R"({"op":"compile","id":"r2","model":"tiny-mlp"})", &request,
        &error))
        << error;
    EXPECT_FALSE(request.hasDeadline);
    EXPECT_EQ(request.priority, 0);
}

TEST(ServeProtocol, ResolveFailsOnUnknownNamesWithoutExiting)
{
    // The CLI resolvers fatal() on unknown names; the serve resolver
    // must instead fail with a message — a daemon cannot exit because
    // one client sent a typo.
    ServeRequest request;
    request.id = "x";
    request.model = "no-such-model";
    CompileRequest resolved;
    std::string error;
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));
    EXPECT_NE(error.find("no-such-model"), std::string::npos);

    request.model = "tiny-mlp";
    request.chip = "no-such-chip";
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));

    request.chip = "dynaplasia";
    request.compiler = "no-such-compiler";
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));

    // decode/layers only make sense on transformers.
    request.compiler = "cmswitch";
    request.model = "vgg16";
    request.decodeKv = 4;
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));

    // ...and decode only on a decoder-only one: an encoder's decode step
    // does not exist, and asking for it must not exit the process.
    request.model = "bert-base";
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));
    EXPECT_NE(error.find("decoder-only"), std::string::npos) << error;

    request.model = "vgg16";
    request.decodeKv = 0;
    EXPECT_TRUE(resolveServeRequest(request, &resolved, &error)) << error;
    EXPECT_EQ(resolved.compilerId, "cmswitch");
}

TEST(ServeProtocol, ServingDocExampleParsesAndResolves)
{
    // The worked example's decode request from docs/serving.md,
    // verbatim: the documented wire keys must be the accepted ones.
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"op":"compile","id":"urgent","model":"opt-6.7b","decode":256,"layers":2,"priority":9,"deadline_ms":5000})",
        &request, &error))
        << error;
    EXPECT_EQ(request.decodeKv, 256);
    EXPECT_EQ(request.layers, 2);
    CompileRequest resolved;
    EXPECT_TRUE(resolveServeRequest(request, &resolved, &error)) << error;
}

/** Collects response lines from an engine (sink runs on worker and
 *  session threads). */
struct ResponseLog
{
    std::mutex mutex;
    std::vector<std::string> lines;

    ServeEngine::LineFn sink()
    {
        return [this](const std::string &line) {
            // One line per response: the transport adds the only '\n'.
            EXPECT_EQ(line.find('\n'), std::string::npos) << line;
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(line);
        };
    }

    /** The one response whose "id" field equals @p id. */
    JsonValue forId(const std::string &id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        JsonValue match;
        s64 found = 0;
        for (const std::string &line : lines) {
            JsonValue doc;
            std::string error;
            EXPECT_TRUE(parseJson(line, &doc, &error)) << line;
            const JsonValue *docId = doc.find("id");
            if (docId && docId->stringValue == id) {
                match = doc;
                ++found;
            }
        }
        EXPECT_EQ(found, 1) << "responses with id '" << id << "'";
        return match;
    }
};

s64
intField(const JsonValue &doc, std::initializer_list<const char *> path)
{
    const JsonValue *value = &doc;
    for (const char *key : path) {
        value = value->find(key);
        if (!value) {
            ADD_FAILURE() << "missing key '" << key << "'";
            return -1;
        }
    }
    EXPECT_TRUE(value->isIntegral);
    return value->intValue;
}

/**
 * The pinned serve scenario (mirrored by serve_smoke against the real
 * binary): max_inflight 1, max_queue 2, dispatch held while five
 * compile requests arrive —
 *   a  admitted;
 *   b  duplicate of a, coalesces as a rider (no queue slot);
 *   e  higher priority with deadline_ms 0, admitted (queue now full);
 *   d  low priority, queue full, shed at admission;
 * then release: e expires at pop (shed, never compiled), a compiles
 * cold with b riding, and a later identical f hits the memory cache.
 * Every counter in the status-v3 report is pinned; run twice to show
 * the report is deterministic under a fixed script.
 */
TEST(ServeEngine, StatusReportIsDeterministicUnderFixedScript)
{
    for (int run = 0; run < 2; ++run) {
        ResponseLog log;
        ServeEngineOptions options;
        options.maxInflight = 1;
        options.maxQueue = 2;
        ServeEngine engine(options, log.sink());

        auto line = [&](const std::string &text) {
            EXPECT_TRUE(engine.handleLine(text));
        };
        line(R"({"op":"hold","id":"h"})");
        line(R"({"op":"compile","id":"a","model":"tiny-mlp","priority":5})");
        line(R"({"op":"compile","id":"b","model":"tiny-mlp","priority":5})");
        line(R"({"op":"compile","id":"e","model":"tiny-mlp","chip":"prime",)"
             R"("priority":9,"deadline_ms":0})");
        line(R"({"op":"compile","id":"d","model":"tiny-mlp",)"
             R"("compiler":"occ","priority":1})");
        line(R"({"op":"release","id":"r"})");
        line(R"({"op":"drain","id":"dr"})");
        line(R"({"op":"compile","id":"f","model":"tiny-mlp","priority":5})");
        line(R"({"op":"drain","id":"dr2"})");

        // Per-request outcomes.
        JsonValue a = log.forId("a");
        EXPECT_EQ(a.find("cache")->stringValue, "cold");
        EXPECT_FALSE(a.find("coalesced")->boolValue);
        JsonValue b = log.forId("b");
        EXPECT_EQ(b.find("status")->stringValue, "ok");
        EXPECT_TRUE(b.find("coalesced")->boolValue);
        EXPECT_EQ(b.find("key")->stringValue, a.find("key")->stringValue);
        JsonValue d = log.forId("d");
        EXPECT_EQ(d.find("status")->stringValue, "shed");
        EXPECT_EQ(d.find("reason")->stringValue, "admission");
        EXPECT_EQ(intField(d, {"queue_depth"}), 2);
        JsonValue e = log.forId("e");
        EXPECT_EQ(e.find("status")->stringValue, "shed");
        EXPECT_EQ(e.find("reason")->stringValue, "deadline");
        JsonValue f = log.forId("f");
        EXPECT_EQ(f.find("cache")->stringValue, "memory");

        // The status-v3 report, every counter pinned. On-demand status
        // is a pure read: cumulative only, no interval block.
        JsonValue status;
        std::string error;
        ASSERT_TRUE(parseJson(engine.statusJson(), &status, &error))
            << error;
        EXPECT_EQ(status.find("schema")->stringValue,
                  "cmswitch-serve-status-v3");
        EXPECT_EQ(status.find("interval"), nullptr);
        EXPECT_EQ(intField(status, {"requests", "received"}), 5);
        EXPECT_EQ(intField(status, {"requests", "admitted"}), 3);
        EXPECT_EQ(intField(status, {"requests", "coalesced"}), 1);
        EXPECT_EQ(intField(status, {"requests", "shed_admission"}), 1);
        EXPECT_EQ(intField(status, {"requests", "shed_deadline"}), 1);
        EXPECT_EQ(intField(status, {"requests", "errors"}), 0);
        EXPECT_EQ(intField(status, {"requests", "completed"}), 3);
        EXPECT_EQ(intField(status, {"queue", "depth"}), 0);
        EXPECT_EQ(intField(status, {"queue", "inflight"}), 0);
        EXPECT_EQ(intField(status, {"cache", "memory"}), 1);
        EXPECT_EQ(intField(status, {"cache", "disk"}), 0);
        EXPECT_EQ(intField(status, {"cache", "cold"}), 1);
        std::vector<std::string> outcomes;
        for (const auto &member : status.find("cache")->members)
            outcomes.push_back(member.first);
        EXPECT_EQ(outcomes,
                  (std::vector<std::string>{"memory", "disk", "cold"}));
        EXPECT_EQ(intField(status, {"plan_cache", "hits"}), 1);
        EXPECT_EQ(intField(status, {"plan_cache", "misses"}), 1);
        // Two compiles ran (a+b share one, f the other): the latency
        // estimators saw exactly two samples each.
        EXPECT_EQ(intField(status, {"latency", "execute_seconds",
                                    "count"}), 2);
        EXPECT_EQ(intField(status, {"latency", "queue_wait_seconds",
                                    "count"}), 2);
    }
}

/**
 * --status-every periodic lines carry true interval deltas: with
 * statusEvery 1, each line's "interval" block counts only the groups
 * that completed since the previous line, its histograms hold only the
 * interval's samples, and the deltas sum back to the cumulative
 * section that keeps counting from engine start. "drain" guarantees
 * any due periodic line has been written, so the script is race-free.
 */
TEST(ServeEngine, PeriodicStatusCarriesIntervalDeltas)
{
    ResponseLog log;
    ResponseLog periodic;
    ServeEngineOptions options;
    options.maxInflight = 1;
    options.maxQueue = 4;
    options.statusEvery = 1;
    ServeEngine engine(options, log.sink(), periodic.sink());

    auto line = [&](const std::string &text) {
        EXPECT_TRUE(engine.handleLine(text));
    };
    // Group 1: a leads with b riding (two completed requests, one
    // latency sample). Group 2: c compiles a different plan.
    line(R"({"op":"hold","id":"h"})");
    line(R"({"op":"compile","id":"a","model":"tiny-mlp","priority":5})");
    line(R"({"op":"compile","id":"b","model":"tiny-mlp","priority":5})");
    line(R"({"op":"release","id":"r"})");
    line(R"({"op":"drain","id":"d1"})");
    line(R"({"op":"compile","id":"c","model":"tiny-mlp","chip":"prime"})");
    line(R"({"op":"drain","id":"d2"})");

    std::vector<JsonValue> docs;
    {
        std::lock_guard<std::mutex> lock(periodic.mutex);
        ASSERT_EQ(periodic.lines.size(), 2u);
        for (const std::string &text : periodic.lines) {
            JsonValue doc;
            std::string error;
            ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
            docs.push_back(doc);
        }
    }

    EXPECT_EQ(intField(docs[0], {"interval", "completed"}), 2);
    EXPECT_EQ(intField(docs[0], {"requests", "completed"}), 2);
    EXPECT_EQ(intField(docs[0],
                       {"interval", "queue_wait_seconds", "count"}), 1);

    // Only c's group landed in the second interval; the cumulative
    // estimators keep both samples.
    EXPECT_EQ(intField(docs[1], {"interval", "completed"}), 1);
    EXPECT_EQ(intField(docs[1], {"requests", "completed"}), 3);
    EXPECT_EQ(intField(docs[1],
                       {"interval", "queue_wait_seconds", "count"}), 1);
    EXPECT_EQ(intField(docs[1],
                       {"latency", "queue_wait_seconds", "count"}), 2);
}

TEST(ServeEngine, DeadlineExpiredWhileQueuedIsNeverCompiled)
{
    ResponseLog log;
    ServeEngineOptions options;
    options.maxInflight = 1;
    options.maxQueue = 4;
    ServeEngine engine(options, log.sink());

    EXPECT_TRUE(engine.handleLine(R"({"op":"hold","id":"h"})"));
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"late","model":"tiny-mlp",)"
        R"("deadline_ms":0})"));
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"ok","model":"tiny-mlp","chip":"prime"})"));
    EXPECT_TRUE(engine.handleLine(R"({"op":"release","id":"r"})"));
    EXPECT_TRUE(engine.handleLine(R"({"op":"drain","id":"d"})"));

    EXPECT_EQ(log.forId("late").find("status")->stringValue, "shed");
    EXPECT_EQ(log.forId("late").find("reason")->stringValue, "deadline");
    EXPECT_EQ(log.forId("ok").find("status")->stringValue, "ok");

    // Exactly one compile happened — the expired request never ran.
    JsonValue status;
    std::string error;
    ASSERT_TRUE(parseJson(engine.statusJson(), &status, &error)) << error;
    EXPECT_EQ(intField(status, {"plan_cache", "misses"}), 1);
    EXPECT_EQ(intField(status, {"requests", "shed_deadline"}), 1);
    EXPECT_EQ(intField(status, {"requests", "completed"}), 1);
}

TEST(ServeEngine, BadLinesGetErrorResponsesAndTheEngineSurvives)
{
    ResponseLog log;
    ServeEngine engine(ServeEngineOptions{}, log.sink());
    EXPECT_TRUE(engine.handleLine("this is not json"));
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"bad","model":"no-such-model"})"));
    EXPECT_EQ(log.forId("bad").find("status")->stringValue, "error");
    // The daemon still compiles after both failures.
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"good","model":"tiny-mlp"})"));
    EXPECT_TRUE(engine.handleLine(R"({"op":"drain","id":"d"})"));
    EXPECT_EQ(log.forId("good").find("status")->stringValue, "ok");

    JsonValue status;
    std::string error;
    ASSERT_TRUE(parseJson(engine.statusJson(), &status, &error)) << error;
    EXPECT_EQ(intField(status, {"requests", "errors"}), 2);
    EXPECT_EQ(intField(status, {"requests", "completed"}), 1);
}

TEST(ServeEngine, ShutdownAcksDrainsAndEndsTheSession)
{
    ResponseLog log;
    ServeEngine engine(ServeEngineOptions{}, log.sink());
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"c","model":"tiny-mlp"})"));
    EXPECT_FALSE(engine.handleLine(R"({"op":"shutdown","id":"x"})"));
    EXPECT_EQ(log.forId("c").find("status")->stringValue, "ok");
    EXPECT_EQ(log.forId("x").find("op")->stringValue, "shutdown");
}

} // namespace
} // namespace cmswitch
