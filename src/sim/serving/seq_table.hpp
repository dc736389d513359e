/**
 * @file
 * A flat seq -> value table for the simulator's waiting requests.
 *
 * The simulator numbers requests with increasing seqs, as the serve
 * queue requires, and a request enters the table once, at its arrival,
 * so appending keeps the entries sorted by seq and a lookup is a binary
 * search. Taking an entry leaves a tombstone; once the entries
 * outnumber 2·live + kSlack, the table drops its tombstones in place.
 * It therefore never holds more than 2·live + kSlack entries, and once
 * its vector has grown to a run's peak it allocates nothing more.
 */

#ifndef CMSWITCH_SIM_SERVING_SEQ_TABLE_HPP
#define CMSWITCH_SIM_SERVING_SEQ_TABLE_HPP

#include <algorithm>
#include <vector>

#include "support/common.hpp"
#include "support/logging.hpp"

namespace cmswitch {

template <typename T>
class SeqTable
{
  public:
    static constexpr std::size_t kSlack = 32;

    void reserve(std::size_t entries) { entries_.reserve(entries); }

    /** Add @p value under @p seq, which must exceed every earlier seq. */
    void
    insert(u64 seq, const T &value)
    {
        cmswitch_assert(seq > lastSeq_, "seq ", seq, " after ", lastSeq_);
        lastSeq_ = seq;
        entries_.push_back(Entry{seq, true, value});
        ++live_;
    }

    /** Remove and return the value under @p seq, which must be live. */
    T
    take(u64 seq)
    {
        auto it = std::lower_bound(
            entries_.begin(), entries_.end(), seq,
            [](const Entry &entry, u64 key) { return entry.seq < key; });
        cmswitch_assert(it != entries_.end() && it->seq == seq && it->live,
                        "seq ", seq, " is not in the table");
        it->live = false;
        --live_;
        T value = it->value;
        if (entries_.size() > 2 * live_ + kSlack) {
            entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                          [](const Entry &entry) {
                                              return !entry.live;
                                          }),
                           entries_.end());
        }
        return value;
    }

    /** Live entries. */
    std::size_t size() const { return live_; }
    /** Live entries plus tombstones. */
    std::size_t slots() const { return entries_.size(); }
    std::size_t capacity() const { return entries_.capacity(); }

  private:
    struct Entry
    {
        u64 seq;
        bool live;
        T value;
    };

    std::vector<Entry> entries_;
    std::size_t live_ = 0;
    u64 lastSeq_ = 0;
};

} // namespace cmswitch

#endif // CMSWITCH_SIM_SERVING_SEQ_TABLE_HPP
