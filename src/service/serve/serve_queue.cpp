#include "service/serve/serve_queue.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace cmswitch {

struct ServeQueue::Later
{
    bool
    operator()(const Timed &a, const Timed &b) const
    {
        if (a.deadline != b.deadline)
            return a.deadline > b.deadline;
        return a.seq > b.seq;
    }
};

ServeQueue::ServeQueue(s64 maxQueue) : maxQueue_(maxQueue)
{
    cmswitch_fatal_if(maxQueue < 1,
                      "serve queue needs maxQueue >= 1, got ", maxQueue);
}

u32
ServeQueue::bandFor(s64 priority)
{
    auto at = std::lower_bound(
        open_.begin(), open_.end(), priority,
        [](const BandRef &open, s64 key) { return open.priority < key; });
    if (at != open_.end() && at->priority == priority)
        return at->band;
    u32 band;
    if (pool_.empty()) {
        band = static_cast<u32>(bands_.size());
        bands_.emplace_back();
    } else {
        // Take back the pooled band that last held this priority, so a
        // recurring priority keeps the capacity it grew; else the most
        // recently pooled one.
        auto pick = std::find_if(
            pool_.rbegin(), pool_.rend(),
            [priority](const BandRef &pooled) {
                return pooled.priority == priority;
            });
        if (pick == pool_.rend())
            pick = pool_.rbegin();
        band = pick->band;
        *pick = pool_.back();
        pool_.pop_back();
    }
    open_.insert(at, BandRef{priority, band});
    return band;
}

void
ServeQueue::close(std::size_t at)
{
    Band &band = bands_[open_[at].band];
    band.arrivals.clear();
    band.head = 0;
    band.timed.clear();
    pool_.push_back(open_[at]);
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(at));
}

void
ServeQueue::pruneTimed(Band &band)
{
    while (!live(band.timed.front().seq, band.timed.front().slot))
        popTimed(band);
}

ServeQueue::Timed
ServeQueue::popTimed(Band &band)
{
    Timed top = band.timed.front();
    std::pop_heap(band.timed.begin(), band.timed.end(), Later());
    band.timed.pop_back();
    return top;
}

void
ServeQueue::release(Band &band, u32 slot, bool hasDeadline)
{
    slotSeq_[slot] = 0;
    freeSlots_.push_back(slot);
    --size_;
    --band.live;
    if (hasDeadline)
        --band.liveTimed;
}

void
ServeQueue::compact(Band &band)
{
    auto dead = [this](const auto &entry) {
        return !live(entry.seq, entry.slot);
    };
    if (static_cast<s64>(band.arrivals.size()) > 2 * band.live + 32) {
        // Consumed entries are dead too, so this also drops the head.
        band.arrivals.erase(std::remove_if(band.arrivals.begin(),
                                           band.arrivals.end(), dead),
                            band.arrivals.end());
        band.head = 0;
    }
    if (static_cast<s64>(band.timed.size()) > 2 * band.liveTimed + 32) {
        band.timed.erase(
            std::remove_if(band.timed.begin(), band.timed.end(), dead),
            band.timed.end());
        std::make_heap(band.timed.begin(), band.timed.end(), Later());
    }
}

ServeQueue::Admission
ServeQueue::admit(u64 seq, s64 priority, bool hasDeadline, double deadline)
{
    // Seqs are never reused, so a freed slot can never read as live
    // to a dead list entry.
    cmswitch_fatal_if(seq <= lastSeq_,
                      "serve queue seqs must be >= 1 and strictly "
                      "increasing: got ",
                      seq, " after ", lastSeq_);
    lastSeq_ = seq;
    Admission out;
    if (size_ >= maxQueue_) {
        // Strictly higher priority displaces; equal never does — an
        // arrival must not bump a peer that got there first.
        if (priority <= open_.front().priority) {
            out.kind = Admission::Kind::kShedSelf;
            return out;
        }
        Band &weakest = bands_[open_.front().band];
        // Lowest priority loses; among equals the *newest* loses, so
        // earlier arrivals keep their place — shedding is "priority
        // then FIFO".
        while (!live(weakest.arrivals.back().seq,
                     weakest.arrivals.back().slot))
            weakest.arrivals.pop_back();
        Arrival victim = weakest.arrivals.back();
        weakest.arrivals.pop_back();
        out.kind = Admission::Kind::kShedVictim;
        out.victim = Handle{victim.seq, victim.slot};
        release(weakest, victim.slot, victim.hasDeadline);
        if (weakest.live == 0)
            close(0);
        else
            compact(weakest);
    }

    Band &band = bands_[bandFor(priority)];
    u32 slot;
    if (freeSlots_.empty()) {
        slot = static_cast<u32>(slotSeq_.size());
        slotSeq_.push_back(seq);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slotSeq_[slot] = seq;
    }
    ++size_;
    ++band.live;
    band.arrivals.push_back(Arrival{seq, slot, hasDeadline});
    if (hasDeadline) {
        ++band.liveTimed;
        band.timed.push_back(Timed{deadline, seq, slot});
        std::push_heap(band.timed.begin(), band.timed.end(), Later());
    }
    out.slot = slot;
    return out;
}

bool
ServeQueue::pop(double now, Handle *popped, std::vector<Handle> *expired)
{
    // Expiry sweep first: a ticket whose deadline passed while it
    // waited must never reach a worker, even if it would have been
    // popped this very call. Each band yields expiry order; callers
    // get arrival order.
    std::size_t firstExpired = expired->size();
    for (const BandRef &open : open_) {
        Band &band = bands_[open.band];
        while (band.liveTimed > 0) {
            pruneTimed(band);
            if (!(band.timed.front().deadline <= now))
                break;
            Timed top = popTimed(band);
            expired->push_back(Handle{top.seq, top.slot});
            release(band, top.slot, true);
        }
    }
    if (expired->size() > firstExpired) {
        std::sort(expired->begin()
                      + static_cast<std::ptrdiff_t>(firstExpired),
                  expired->end(), [](const Handle &a, const Handle &b) {
                      return a.seq < b.seq;
                  });
        for (std::size_t at = open_.size(); at-- > 0;) {
            Band &band = bands_[open_[at].band];
            if (band.live == 0)
                close(at);
            else
                compact(band); // removals shrink the bound too
        }
    }
    if (size_ == 0)
        return false;

    // Within the strongest band, urgency: a ticket with a deadline
    // outranks one without, earlier deadlines first; all else FIFO.
    std::size_t at = open_.size() - 1;
    Band &band = bands_[open_[at].band];
    if (band.liveTimed > 0) {
        pruneTimed(band);
        Timed top = popTimed(band);
        *popped = Handle{top.seq, top.slot};
        release(band, top.slot, true);
    } else {
        while (!live(band.arrivals[band.head].seq,
                     band.arrivals[band.head].slot))
            ++band.head;
        Arrival oldest = band.arrivals[band.head++];
        *popped = Handle{oldest.seq, oldest.slot};
        release(band, oldest.slot, oldest.hasDeadline);
    }
    if (band.live == 0)
        close(at);
    else
        compact(band);
    return true;
}

} // namespace cmswitch
