#include "compiler/segmenter.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <utility>

#include "obs/obs.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

namespace cmswitch {

namespace {

/** Hard cap on ops per segment, a safety net for the DP width. */
constexpr s64 kMaxSegmentOps = 64;

void
appendInt(std::string &out, s64 value)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

/** Signature fragment of one op's workload (edges are appended per
 *  range, with range-relative indices). */
std::string
opSignature(const OpWorkload &w)
{
    std::string out;
    out.reserve(64);
    appendInt(out, w.weightTiles);
    out.push_back(':');
    appendInt(out, w.macs);
    out.push_back(':');
    appendInt(out, w.weightBytes);
    out.push_back(':');
    appendInt(out, w.inputBytes);
    out.push_back(':');
    appendInt(out, w.outputBytes);
    out.push_back(':');
    appendInt(out, w.vectorElems);
    out.push_back(':');
    appendInt(out, w.movingRows);
    out.push_back(':');
    out.push_back(w.dynamicWeights ? '1' : '0');
    out.push_back(':');
    out += formatDouble(w.utilization, 5);
    out.push_back(';');
    return out;
}

} // namespace

namespace {

/** referenceSearch covers the whole search stack: the DP *and* the
 *  allocator's probe shortcuts revert together. */
AllocatorOptions
allocatorOptionsFor(const SegmenterOptions &options)
{
    AllocatorOptions alloc = options.alloc;
    alloc.referenceSearch = alloc.referenceSearch || options.referenceSearch;
    alloc.searchThreads = options.searchThreads;
    return alloc;
}

} // namespace

Segmenter::Segmenter(const CostModel &cost, SegmenterOptions options)
    : cost_(&cost), options_(options),
      pool_(options.searchThreads > 1 && !options.referenceSearch
                ? std::make_unique<TaskPool>(options.searchThreads)
                : nullptr),
      allocator_(cost, allocatorOptionsFor(options), pool_.get())
{
}

const SegmentAllocation &
Segmenter::allocateCachedRef(const std::vector<ScheduledOp> &ops, s64 lo,
                             s64 hi)
{
    // Fast path: this exact range was priced before in this run.
    s64 range_key = lo * (static_cast<s64>(ops.size()) + 1) + hi;
    if (const SegmentAllocation **found = rangeCache_.find(range_key)) {
        ++cacheHits_;
        return **found;
    }

    std::string key = rangeSignature(ops, lo, hi);

    auto it = cache_.find(key);
    if (it != cache_.end()) {
        ++cacheHits_;
    } else {
        ++cacheMisses_;
        it = cache_
                 .emplace(std::move(key),
                          allocator_.allocate(makeSegmentView(ops, lo, hi)))
                 .first;
    }
    rangeCache_.insert(range_key, &it->second);
    return it->second;
}

std::string
Segmenter::rangeSignature(const std::vector<ScheduledOp> &ops, s64 lo,
                          s64 hi) const
{
    // Signature of the segment's workloads + intra edges: memoised
    // per-op fragments plus range-relative dependency edges.
    std::string key;
    key.reserve(static_cast<std::size_t>(hi - lo) * 72);
    for (s64 i = lo; i < hi; ++i) {
        const ScheduledOp &op = ops[static_cast<std::size_t>(i)];
        key += opSig_[static_cast<std::size_t>(i)];
        for (std::size_t e = 0; e < op.preds.size(); ++e) {
            s64 p = op.preds[e];
            if (p >= lo && p < hi) {
                appendInt(key, p - lo);
                key.push_back('>');
                appendInt(key, i - lo);
                key.push_back('=');
                appendInt(key, op.reuseBytes[e]);
                key.push_back(',');
            }
        }
        key.push_back('|');
    }
    return key;
}

SegmentAllocation
Segmenter::allocateCached(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi)
{
    return allocateCachedRef(ops, lo, hi);
}

const SegmentAllocation &
Segmenter::allocationForRange(const std::vector<ScheduledOp> &ops, s64 lo,
                              s64 hi)
{
    if (cachedOps_ != ops.data() || opSig_.size() != ops.size()) {
        // Probed before (or with a different list than) the last run():
        // the range cache is positional, so rebuild the per-run
        // structures for this list instead of serving stale entries.
        rangeCache_.clear();
        opSig_.clear();
        opSig_.reserve(ops.size());
        for (const ScheduledOp &op : ops)
            opSig_.push_back(opSignature(op.work));
        cachedOps_ = ops.data();
    }
    return allocateCachedRef(ops, lo, hi);
}

s64
Segmenter::liveOutBytes(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi,
                        s64 boundary) const
{
    // Store-side traffic: each producer whose data is consumed at or
    // beyond the boundary spills its tensor once (widest edge), plus
    // any network outputs. lastConsumer_/maxEdgeBytes_ are prefix
    // structures built by run().
    s64 total = 0;
    for (s64 i = lo; i < hi; ++i) {
        total += ops[static_cast<std::size_t>(i)].liveOutBytes; // net outputs
        if (lastConsumer_[static_cast<std::size_t>(i)] >= boundary)
            total += maxEdgeBytes_[static_cast<std::size_t>(i)];
    }
    return total;
}

s64
Segmenter::inboundBytes(const std::vector<ScheduledOp> &ops, s64 lo,
                        s64 hi) const
{
    s64 total = 0;
    for (s64 i = lo; i < hi; ++i) {
        const ScheduledOp &op = ops[static_cast<std::size_t>(i)];
        for (std::size_t e = 0; e < op.preds.size(); ++e) {
            if (op.preds[e] < lo)
                total += op.reuseBytes[e];
        }
    }
    return total;
}

void
Segmenter::interCost(const std::vector<ScheduledOp> &ops,
                     const SegmentAllocation &prev, s64 prev_lo, s64 lo,
                     s64 hi, const SegmentAllocation &cur, s64 phys_compute,
                     SegmentDecision *decision) const
{
    const ChipConfig &chip = cost_->chip();
    const Deha &deha = cost_->deha();

    // Step 2 (Eq. 1): mode switching from the current physical state.
    SwitchDelta delta = deha.switchesBetween(phys_compute, cur.plan);
    decision->interSwitch = deha.switchLatency(delta);

    // Step 3 (Eq. 2): (re)programming the segment's static weights.
    std::vector<OpWorkload> ws;
    for (s64 i = lo; i < hi; ++i)
        ws.push_back(ops[static_cast<std::size_t>(i)].work);
    decision->interRewrite = cost_->weightRewriteLatency(ws, cur.allocs);

    // Step 1: write-back + reload around the boundary.
    s64 store_bytes = 0;
    s64 carried = 0;
    if (prev_lo >= 0) {
        s64 direct = 0;
        for (s64 i = lo; i < hi; ++i) {
            const ScheduledOp &op = ops[static_cast<std::size_t>(i)];
            for (std::size_t e = 0; e < op.preds.size(); ++e) {
                if (op.preds[e] >= prev_lo && op.preds[e] < lo)
                    direct += op.reuseBytes[e];
            }
        }
        s64 carry_cap = chip.bufferBytes;
        if (options_.alloc.allowMemoryMode) {
            carry_cap += std::min(prev.plan.memoryArrays,
                                  cur.plan.memoryArrays)
                       * chip.arrayMemoryBytes();
        }
        carried = options_.livenessAwareWriteback ? std::min(direct, carry_cap)
                                                  : 0;
        if (options_.livenessAwareWriteback) {
            store_bytes = liveOutBytes(ops, prev_lo, lo, lo) - carried;
        } else {
            for (s64 i = prev_lo; i < lo; ++i)
                store_bytes += ops[static_cast<std::size_t>(i)].work.outputBytes;
        }
        store_bytes = std::max<s64>(0, store_bytes);
    }
    s64 load_bytes = std::max<s64>(0, inboundBytes(ops, lo, hi) - carried);
    decision->storeBytes = store_bytes;
    decision->loadBytes = load_bytes;
    decision->carriedBytes = carried;
    decision->interWriteback = cost_->mainMemoryTransfer(store_bytes)
                             + cost_->mainMemoryTransfer(load_bytes);
}

ScheduleResult
Segmenter::run(const std::vector<ScheduledOp> &ops)
{
    if (ops.empty())
        return ScheduleResult{};
    cmswitch_assert(static_cast<s64>(ops.size()) <= kMaxOps,
                    "flattened network too large for range-key packing");

    rangeCache_.clear();
    cachedOps_ = ops.data();
    lastConsumer_.assign(ops.size(), -1);
    maxEdgeBytes_.assign(ops.size(), 0);
    for (std::size_t c = 0; c < ops.size(); ++c) {
        for (std::size_t e = 0; e < ops[c].preds.size(); ++e) {
            auto p = static_cast<std::size_t>(ops[c].preds[e]);
            lastConsumer_[p] = std::max(lastConsumer_[p],
                                        static_cast<s64>(c));
            maxEdgeBytes_[p] = std::max(maxEdgeBytes_[p],
                                        ops[c].reuseBytes[e]);
        }
    }
    prefixOutput_.assign(ops.size() + 1, 0);
    for (std::size_t i = 0; i < ops.size(); ++i)
        prefixOutput_[i + 1] = prefixOutput_[i] + ops[i].work.outputBytes;
    opSig_.clear();
    opSig_.reserve(ops.size());
    for (const ScheduledOp &op : ops)
        opSig_.push_back(opSignature(op.work));

    obs::ScopedPhase phase(obs::Hist::kPhaseSegment, "segmenter.run",
                           "segmenter");
    phase.arg("ops", static_cast<s64>(ops.size()));
    const s64 hitsBefore = cacheHits_;
    const s64 missesBefore = cacheMisses_;
    ScheduleResult result;
    if (!options_.useDp)
        result = runGreedy(ops);
    else
        result = options_.referenceSearch ? runDpReference(ops)
                                          : runDp(ops);
    obs::count(obs::Met::kDpSigCacheHits, cacheHits_ - hitsBefore);
    obs::count(obs::Met::kDpSigCacheMisses, cacheMisses_ - missesBefore);
    return result;
}

ScheduleResult
Segmenter::runGreedy(const std::vector<ScheduledOp> &ops)
{
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    // Greedy segmentation: extend the open segment while doing so is
    // locally profitable — the joint segment must not cost more than
    // cutting here (intra + Eq. 2 rewrite + boundary traffic). This is
    // the one-pass scheduling the fixed-mode baseline stacks perform;
    // only the DP (Alg. 1) explores alternative cut points globally.
    auto segment_cost = [&](s64 lo, s64 hi) -> Cycles {
        const SegmentAllocation &a = allocateCachedRef(ops, lo, hi);
        if (!a.feasible())
            return kInfCycles;
        std::vector<OpWorkload> ws;
        std::vector<OpAllocation> as;
        for (s64 i = lo; i < hi; ++i) {
            ws.push_back(ops[static_cast<std::size_t>(i)].work);
            as.push_back(a.allocs[static_cast<std::size_t>(i - lo)]);
        }
        return a.intraLatency + cost_->weightRewriteLatency(ws, as);
    };

    std::vector<std::pair<s64, s64>> ranges;
    s64 lo = 0;
    while (lo < n) {
        s64 hi = lo + 1;
        s64 tiles = ops[static_cast<std::size_t>(lo)].work.weightTiles;
        cmswitch_assert(tiles <= n_cim, "operator ",
                        ops[static_cast<std::size_t>(lo)].work.name,
                        " does not fit the chip even alone");
        while (hi < n && hi - lo < kMaxSegmentOps) {
            s64 t = ops[static_cast<std::size_t>(hi)].work.weightTiles;
            if (tiles + t > n_cim)
                break;
            Cycles joined = segment_cost(lo, hi + 1);
            if (joined >= kInfCycles)
                break;
            Cycles boundary =
                cost_->mainMemoryTransfer(liveOutBytes(ops, lo, hi, hi))
                + cost_->mainMemoryTransfer(inboundBytes(ops, hi, hi + 1));
            Cycles separate = segment_cost(lo, hi) + segment_cost(hi, hi + 1)
                            + boundary;
            if (joined > separate)
                break;
            tiles += t;
            ++hi;
        }
        ranges.emplace_back(lo, hi);
        lo = hi;
    }
    return finalize(ops, std::move(ranges));
}

std::vector<s64>
Segmenter::minStarts(const std::vector<ScheduledOp> &ops) const
{
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    // Feasible segment starts for each boundary i: [minStart[i], i).
    std::vector<s64> min_start(static_cast<std::size_t>(n) + 1, 0);
    s64 tiles = 0;
    s64 k = 0;
    for (s64 i = 0; i < n; ++i) {
        tiles += ops[static_cast<std::size_t>(i)].work.weightTiles;
        while (tiles > n_cim || i - k + 1 > kMaxSegmentOps) {
            tiles -= ops[static_cast<std::size_t>(k)].work.weightTiles;
            ++k;
        }
        cmswitch_assert(k <= i, "operator ",
                        ops[static_cast<std::size_t>(i)].work.name,
                        " does not fit the chip even alone");
        min_start[static_cast<std::size_t>(i) + 1] = k;
    }
    return min_start;
}

ScheduleResult
Segmenter::runDp(const std::vector<ScheduledOp> &ops)
{
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;
    const ChipConfig &chip = cost_->chip();
    const Deha &deha = cost_->deha();
    const s64 array_bytes = chip.arrayMemoryBytes();
    const bool liveness = options_.livenessAwareWriteback;
    const bool memory_mode = options_.alloc.allowMemoryMode;

    std::vector<s64> min_start = minStarts(ops);

    // One DP state per (boundary i, segment start k): best prefix cost
    // plus everything a *successor* transition needs from this state —
    // the memory-array count of [k, i) (physical-mode handover) and its
    // live-out bytes at boundary i (write-back pricing). Carrying these
    // in the state is what lets the inner scan below run without
    // touching segment allocations at all. States are appended in k
    // order, preserving the reference search's ascending-key iteration
    // (and therefore its exact tie-breaking).
    struct FastState
    {
        s64 start = 0;
        Cycles cost = kInfCycles;
        s64 prevStart = -1;
        s64 memArrays = 0; ///< memory arrays of segment [start, boundary)
        s64 outBytes = 0;  ///< liveOutBytes(start, boundary, boundary)
    };
    std::vector<std::vector<FastState>> dp(static_cast<std::size_t>(n) + 1);

    // Per-candidate evaluation of segment [k, i): the one body both
    // the serial loop and the sharded path run, so their costs agree
    // by construction. Reads only immutable per-run structures and
    // earlier DP boundaries; all scratch is caller-provided.
    auto evalCandidate = [&](s64 k, s64 i, const SegmentAllocation &cur,
                             std::vector<const OpWorkload *> &ws_view,
                             std::vector<std::pair<s64, s64>> &crossing,
                             std::vector<s64> &crossing_suffix,
                             Cycles *best_cost_out, s64 *best_prev_out) {
        // Hoisted predecessor-invariants of segment [k, i): Eq. 2
        // rewrite, inbound bytes, allocation aggregates. The
        // reference search recomputes each of these per
        // predecessor state.
        ws_view.clear();
        for (s64 t = k; t < i; ++t)
            ws_view.push_back(&ops[static_cast<std::size_t>(t)].work);
        const Cycles rewrite =
            cost_->weightRewriteLatency(ws_view, cur.allocs);
        const s64 inbound = inboundBytes(ops, k, i);
        const s64 cur_mem = cur.plan.memoryArrays;
        const Cycles intra = cur.intraLatency;

        Cycles best_cost = kInfCycles;
        s64 best_prev = -1;
        if (k == 0) {
            // First segment: switches from the all-compute boot
            // state, initial weight load, no predecessor data.
            SwitchDelta delta = deha.switchesBetween(n_cim, cur.plan);
            best_cost = intra + deha.switchLatency(delta) + rewrite
                      + cost_->mainMemoryTransfer(
                            std::max<s64>(0, inbound));
            best_prev = -1;
        } else if (!dp[static_cast<std::size_t>(k)].empty()) {
            // Dependency edges crossing into [k, i) from before k,
            // sorted by producer with suffix byte sums: the bytes a
            // predecessor segment [j, k) hands over directly is the
            // suffix at its start j — an O(log E) probe instead of
            // the reference's full range walk per predecessor.
            crossing.clear();
            for (s64 t = k; t < i; ++t) {
                const ScheduledOp &op = ops[static_cast<std::size_t>(t)];
                for (std::size_t e = 0; e < op.preds.size(); ++e) {
                    if (op.preds[e] < k)
                        crossing.emplace_back(op.preds[e],
                                              op.reuseBytes[e]);
                }
            }
            std::sort(crossing.begin(), crossing.end());
            crossing_suffix.assign(crossing.size() + 1, 0);
            for (std::size_t c = crossing.size(); c-- > 0;)
                crossing_suffix[c] =
                    crossing_suffix[c + 1] + crossing[c].second;

            for (const FastState &st : dp[static_cast<std::size_t>(k)]) {
                auto from = std::lower_bound(
                    crossing.begin(), crossing.end(),
                    std::make_pair(st.start,
                                   std::numeric_limits<s64>::min()));
                s64 direct = crossing_suffix[static_cast<std::size_t>(
                    from - crossing.begin())];
                s64 carry_cap = chip.bufferBytes;
                if (memory_mode) {
                    carry_cap += std::min(st.memArrays, cur_mem)
                               * array_bytes;
                }
                s64 carried = liveness ? std::min(direct, carry_cap) : 0;
                s64 store = liveness
                              ? st.outBytes - carried
                              : prefixOutput_[static_cast<std::size_t>(k)]
                                    - prefixOutput_[
                                        static_cast<std::size_t>(
                                            st.start)];
                store = std::max<s64>(0, store);
                s64 load = std::max<s64>(0, inbound - carried);

                // Approximate physical state entering the segment:
                // everything not used as memory by the previous
                // segment is (or can be) in compute mode.
                SwitchDelta delta = deha.switchesBetween(
                    n_cim - st.memArrays, cur.plan);
                Cycles cost = st.cost + intra
                            + cost_->mainMemoryTransfer(store)
                            + cost_->mainMemoryTransfer(load)
                            + deha.switchLatency(delta) + rewrite;
                if (cost < best_cost) {
                    best_cost = cost;
                    best_prev = st.start;
                }
            }
        }
        *best_cost_out = best_cost;
        *best_prev_out = best_prev;
    };

    // Scratch reused across candidate segments (serial path).
    std::vector<const OpWorkload *> ws_view;
    std::vector<std::pair<s64, s64>> crossing; // (producer, bytes), sorted
    std::vector<s64> crossing_suffix;          // suffix byte sums

    TaskPool *pool = pool_.get();

    // Sharded-path scratch: one boundary's candidates with their
    // allocation resolution state (miss < 0: served from cache).
    struct Candidate
    {
        s64 k = 0;
        const SegmentAllocation *alloc = nullptr;
        s64 miss = -1;
        Cycles cost = kInfCycles;
        s64 prev = -1;
    };
    struct Miss
    {
        std::string sig;
        s64 k = 0;
        SegmentAllocation result;
    };
    std::vector<Candidate> cands;
    std::vector<Miss> misses;
    std::vector<const SegmentAllocation *> miss_ptr;

    for (s64 i = 1; i <= n; ++i) {
        obs::count(obs::Met::kDpBoundaries);
        if (pool == nullptr) {
            for (s64 k = min_start[static_cast<std::size_t>(i)]; k < i;
                 ++k) {
                const SegmentAllocation &cur = allocateCachedRef(ops, k, i);
                if (!cur.feasible())
                    continue;
                Cycles best_cost = kInfCycles;
                s64 best_prev = -1;
                evalCandidate(k, i, cur, ws_view, crossing, crossing_suffix,
                              &best_cost, &best_prev);
                if (best_cost < kInfCycles) {
                    dp[static_cast<std::size_t>(i)].push_back(
                        FastState{k, best_cost, best_prev,
                                  cur.plan.memoryArrays,
                                  liveOutBytes(ops, k, i, i)});
                }
            }
            continue;
        }

        // Phase A (serial): resolve each candidate's allocation through
        // the caches with the exact serial bookkeeping — the first
        // start index of an unseen signature counts the miss, repeats
        // count hits — batching the misses for Phase B.
        cands.clear();
        misses.clear();
        {
            obs::Span spanA("dp.phase_a", "segmenter");
            spanA.arg("boundary", i);
            for (s64 k = min_start[static_cast<std::size_t>(i)]; k < i;
                 ++k) {
                s64 range_key = k * (n + 1) + i;
                if (const SegmentAllocation **found =
                        rangeCache_.find(range_key)) {
                    ++cacheHits_;
                    cands.push_back(
                        Candidate{k, *found, -1, kInfCycles, -1});
                    continue;
                }
                std::string sig = rangeSignature(ops, k, i);
                auto it = cache_.find(sig);
                if (it != cache_.end()) {
                    ++cacheHits_;
                    rangeCache_.insert(range_key, &it->second);
                    cands.push_back(
                        Candidate{k, &it->second, -1, kInfCycles, -1});
                    continue;
                }
                s64 miss_slot = -1;
                for (std::size_t m = 0; m < misses.size(); ++m) {
                    if (misses[m].sig == sig) {
                        miss_slot = static_cast<s64>(m);
                        break;
                    }
                }
                if (miss_slot < 0) {
                    ++cacheMisses_;
                    miss_slot = static_cast<s64>(misses.size());
                    misses.push_back(Miss{std::move(sig), k, {}});
                } else {
                    ++cacheHits_;
                }
                cands.push_back(
                    Candidate{k, nullptr, miss_slot, kInfCycles, -1});
            }
        }

        // Phase B: allocate the batched misses concurrently. Each
        // allocation sees the same segment view the serial first touch
        // would, and the allocator's own levers are thread-count
        // invariant, so the results match the serial search's.
        {
            obs::Span spanB("dp.phase_b", "segmenter");
            spanB.arg("boundary", i);
            spanB.arg("misses", static_cast<s64>(misses.size()));
            pool->parallelFor(
                static_cast<s64>(misses.size()), [&](s64 m) {
                    Miss &miss = misses[static_cast<std::size_t>(m)];
                    obs::Span missSpan("dp.alloc_miss", "segmenter");
                    missSpan.arg("start", miss.k);
                    missSpan.arg("end", i);
                    miss.result = allocator_.allocate(
                        makeSegmentView(ops, miss.k, i));
                });
        }

        // Phase B2 (serial, ascending k): publish into the caches.
        miss_ptr.assign(misses.size(), nullptr);
        for (std::size_t m = 0; m < misses.size(); ++m) {
            auto it = cache_
                          .emplace(std::move(misses[m].sig),
                                   std::move(misses[m].result))
                          .first;
            miss_ptr[m] = &it->second;
        }
        for (Candidate &cand : cands) {
            if (cand.miss >= 0) {
                cand.alloc = miss_ptr[static_cast<std::size_t>(cand.miss)];
                rangeCache_.insert(cand.k * (n + 1) + i, cand.alloc);
            }
        }
        cands.erase(std::remove_if(cands.begin(), cands.end(),
                                   [](const Candidate &cand) {
                                       return !cand.alloc->feasible();
                                   }),
                    cands.end());

        // Phase C: score candidates concurrently (reads only earlier
        // DP boundaries), then reduce in ascending-k order — the same
        // append order and strict-< tie-breaking as the serial loop.
        obs::Span spanC("dp.phase_c", "segmenter");
        spanC.arg("boundary", i);
        spanC.arg("candidates", static_cast<s64>(cands.size()));
        pool->parallelFor(
            static_cast<s64>(cands.size()), [&](s64 c) {
                Candidate &cand = cands[static_cast<std::size_t>(c)];
                std::vector<const OpWorkload *> task_ws;
                std::vector<std::pair<s64, s64>> task_crossing;
                std::vector<s64> task_suffix;
                evalCandidate(cand.k, i, *cand.alloc, task_ws,
                              task_crossing, task_suffix, &cand.cost,
                              &cand.prev);
            });
        for (const Candidate &cand : cands) {
            if (cand.cost < kInfCycles) {
                dp[static_cast<std::size_t>(i)].push_back(
                    FastState{cand.k, cand.cost, cand.prev,
                              cand.alloc->plan.memoryArrays,
                              liveOutBytes(ops, cand.k, i, i)});
            }
        }
    }

    // Pick the best terminal state and backtrack the segmentation.
    cmswitch_assert(!dp[static_cast<std::size_t>(n)].empty(),
                    "network has no feasible segmentation");
    s64 best_k = -1;
    Cycles best_cost = kInfCycles;
    for (const FastState &st : dp[static_cast<std::size_t>(n)]) {
        if (st.cost < best_cost) {
            best_cost = st.cost;
            best_k = st.start;
        }
    }
    std::vector<std::pair<s64, s64>> ranges;
    s64 i = n;
    s64 k = best_k;
    while (k >= 0) {
        ranges.emplace_back(k, i);
        const auto &states = dp[static_cast<std::size_t>(i)];
        auto it = std::lower_bound(
            states.begin(), states.end(), k,
            [](const FastState &st, s64 start) { return st.start < start; });
        cmswitch_assert(it != states.end() && it->start == k,
                        "DP backlink missing");
        i = k;
        k = it->prevStart;
    }
    std::reverse(ranges.begin(), ranges.end());
    return finalize(ops, std::move(ranges));
}

ScheduleResult
Segmenter::runDpReference(const std::vector<ScheduledOp> &ops)
{
    // The pre-optimization Alg. 1 search, kept verbatim: every
    // (predecessor, segment) pair re-walks its aggregates and re-prices
    // the Eq. 2 rewrite through interCost(). The differential tests
    // assert byte-identical plans against runDp(); do not "fix" or
    // optimise this path — its whole value is being the original.
    const s64 n = static_cast<s64>(ops.size());
    const s64 n_cim = cost_->chip().numSwitchArrays;

    std::vector<s64> min_start = minStarts(ops);

    // dp[i] = states for boundary i, keyed by the start of the segment
    // that ends at i. Value: best prefix cost + backlink (start of the
    // previous segment).
    struct State
    {
        Cycles cost = kInfCycles;
        s64 prevStart = -1;
    };
    std::vector<std::map<s64, State>> dp(static_cast<std::size_t>(n) + 1);

    for (s64 i = 1; i <= n; ++i) {
        for (s64 k = min_start[static_cast<std::size_t>(i)]; k < i; ++k) {
            SegmentAllocation cur = allocateCached(ops, k, i);
            if (!cur.feasible())
                continue;
            State best;
            if (k == 0) {
                // First segment: switches from the all-compute boot
                // state, initial weight load, no predecessor data.
                SegmentDecision d;
                interCost(ops, SegmentAllocation{}, -1, k, i, cur,
                          n_cim, &d);
                best.cost = cur.intraLatency + d.interTotal();
                best.prevStart = -1;
            } else {
                for (const auto &[j, state] : dp[static_cast<std::size_t>(k)]) {
                    if (state.cost >= kInfCycles)
                        continue;
                    SegmentAllocation prev = allocateCached(ops, j, k);
                    SegmentDecision d;
                    // Approximate physical state entering the segment:
                    // everything not used as memory by the previous
                    // segment is (or can be) in compute mode.
                    s64 phys = n_cim - prev.plan.memoryArrays;
                    interCost(ops, prev, j, k, i, cur, phys, &d);
                    Cycles cost = state.cost + cur.intraLatency
                                + d.interTotal();
                    if (cost < best.cost) {
                        best.cost = cost;
                        best.prevStart = j;
                    }
                }
            }
            if (best.cost < kInfCycles)
                dp[static_cast<std::size_t>(i)][k] = best;
        }
    }

    // Pick the best terminal state and backtrack the segmentation.
    cmswitch_assert(!dp[static_cast<std::size_t>(n)].empty(),
                    "network has no feasible segmentation");
    s64 best_k = -1;
    Cycles best_cost = kInfCycles;
    for (const auto &[k, state] : dp[static_cast<std::size_t>(n)]) {
        if (state.cost < best_cost) {
            best_cost = state.cost;
            best_k = k;
        }
    }
    std::vector<std::pair<s64, s64>> ranges;
    s64 i = n;
    s64 k = best_k;
    while (k >= 0) {
        ranges.emplace_back(k, i);
        s64 prev = dp[static_cast<std::size_t>(i)].at(k).prevStart;
        i = k;
        k = prev;
    }
    std::reverse(ranges.begin(), ranges.end());
    return finalize(ops, std::move(ranges));
}

ScheduleResult
Segmenter::finalize(const std::vector<ScheduledOp> &ops,
                    std::vector<std::pair<s64, s64>> ranges)
{
    const Deha &deha = cost_->deha();
    const s64 n_cim = cost_->chip().numSwitchArrays;

    ScheduleResult result;
    s64 phys_compute = n_cim; // boot: all switchable arrays in compute
    SegmentAllocation prev;
    s64 prev_lo = -1;

    for (auto [lo, hi] : ranges) {
        SegmentDecision d;
        d.lo = lo;
        d.hi = hi;
        d.alloc = allocateCached(ops, lo, hi);
        if (!d.alloc.feasible())
            return ScheduleResult{};
        interCost(ops, prev, prev_lo, lo, hi, d.alloc, phys_compute, &d);

        result.latency.intra += d.alloc.intraLatency;
        result.latency.writeback += d.interWriteback;
        result.latency.modeSwitch += d.interSwitch;
        result.latency.rewrite += d.interRewrite;

        SwitchDelta delta = deha.switchesBetween(phys_compute, d.alloc.plan);
        phys_compute = deha.applySwitches(phys_compute, delta);

        prev = d.alloc;
        prev_lo = lo;
        result.segments.push_back(std::move(d));
    }

    // Final network outputs leave the chip.
    if (!ranges.empty()) {
        auto [lo, hi] = ranges.back();
        result.latency.writeback += cost_->mainMemoryTransfer(
            liveOutBytes(ops, lo, hi, static_cast<s64>(ops.size())));
    }
    return result;
}

} // namespace cmswitch
