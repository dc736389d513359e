/**
 * @file
 * Dual-mode-aware network segmentation (paper Sec. 4.3.1, Alg. 1).
 *
 * Dynamic programming over the flattened operator list: L[j] = best
 * cost of executing ops [0, j), transitioning from L[i] by running
 * segment [i, j) with its MIP-allocated resources, paying the three
 * inter-segment overheads (write-back, Eq. 1 mode switch, Eq. 2 weight
 * rewrite). Infeasible windows (weights exceed the chip) are pruned,
 * which bounds the DP width; repeated segment shapes (transformer
 * blocks) hit a signature cache so each block is optimised once
 * (paper Sec. 5.6).
 *
 * Two interchangeable DP search implementations exist:
 *
 *  - runDp() — the production path. Per candidate segment [k, i) it
 *    hoists everything j-invariant (the Eq. 2 rewrite, inbound bytes,
 *    the allocation lookup) out of the predecessor-state scan, carries
 *    each state's write-back aggregates (live-out bytes, memory-array
 *    count) inside the state instead of re-deriving them from segment
 *    allocations, answers boundary-crossing reuse queries from sorted
 *    prefix/suffix byte sums, and keys the per-run range cache with a
 *    flat hash map instead of a red-black tree.
 *  - runDpReference() — the pre-optimization search, kept verbatim
 *    behind SegmenterOptions::referenceSearch. It recomputes every
 *    aggregate per (predecessor, segment) pair. The differential tests
 *    (tests/segmenter_diff_test.cpp, fuzz_test) pin that both searches
 *    produce byte-identical compile results across the full scenario
 *    matrix, which is what licenses every shortcut the fast path takes.
 */

#ifndef CMSWITCH_COMPILER_SEGMENTER_HPP
#define CMSWITCH_COMPILER_SEGMENTER_HPP

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/allocator.hpp"
#include "compiler/compiler_api.hpp"
#include "support/flat_map.hpp"
#include "support/task_pool.hpp"

namespace cmswitch {

/** Scheduling policy of a compiler built on the segmenter. */
struct SegmenterOptions
{
    AllocatorOptions alloc;

    /** true: Alg. 1 DP; false: greedy max-fill segmentation. */
    bool useDp = true;

    /** true: only live-out data is written back between segments;
     *  false: every segment output spills (naive baselines). */
    bool livenessAwareWriteback = true;

    /**
     * true: run the retained pre-optimization DP instead of the fast
     * search. Exists solely so the differential tests (and the Fig. 18
     * bench) can pin/measure the fast path against the original; both
     * must produce byte-identical plans.
     */
    bool referenceSearch = false;

    /**
     * Plan-search parallelism (>= 1). With searchThreads > 1 the
     * segmenter owns a TaskPool and (a) batches each DP boundary's
     * allocation cache misses and per-start candidate scans across it,
     * (b) hands the pool to the allocator for speculative bisection
     * probes and parallel probe branch-and-bound. Every lever reduces
     * in a fixed serial order, so emitted plans — and the signature
     * cache hit/miss counters — are byte-identical for any value of
     * this knob (pinned by segmenter_diff_test's thread sweep).
     * Ignored when referenceSearch is set; the reference path stays
     * fully serial.
     */
    s64 searchThreads = 1;
};

/** One chosen segment with its allocation and entry overheads. */
struct SegmentDecision
{
    s64 lo = 0; ///< first flattened op index (inclusive)
    s64 hi = 0; ///< last flattened op index (exclusive)
    SegmentAllocation alloc;

    /** Inter-segment overheads paid when entering this segment. */
    Cycles interWriteback = 0;
    Cycles interSwitch = 0;
    Cycles interRewrite = 0;

    /** Boundary traffic backing interWriteback (for code generation). */
    s64 storeBytes = 0;   ///< spilled by the predecessor segment
    s64 loadBytes = 0;    ///< fetched on entry of this segment
    s64 carriedBytes = 0; ///< handed over on-chip (no main-memory trip)

    Cycles interTotal() const
    {
        return interWriteback + interSwitch + interRewrite;
    }
};

/** Full schedule of a network. */
struct ScheduleResult
{
    std::vector<SegmentDecision> segments;
    LatencyBreakdown latency;

    bool feasible() const { return !segments.empty(); }
};

/**
 * The segmentation engine. Holds a per-instance cache of segment
 * allocations keyed by workload signature, so reuse it across graphs of
 * the same model family when timing compilation (Fig. 18).
 */
class Segmenter
{
  public:
    Segmenter(const CostModel &cost, SegmenterOptions options);

    /** Segment + allocate the flattened network. */
    ScheduleResult run(const std::vector<ScheduledOp> &ops);

    /** Cache statistics (allocator invocations saved by signatures). */
    s64 cacheHits() const { return cacheHits_; }
    s64 cacheMisses() const { return cacheMisses_; }

    /**
     * The cached allocation for segment [lo, hi), computing (and
     * memoising) it on first touch — the same lookup every search path
     * performs. Public so the property tests can pin cache-hit results
     * against freshly recomputed allocations. Only valid for the ops
     * list of the current/most recent run() (the range cache is keyed
     * by position).
     */
    const SegmentAllocation &
    allocationForRange(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi);

    /**
     * Largest supported flattened-network size: the per-run range cache
     * packs (lo, hi) as lo * (n + 1) + hi, which is collision-free and
     * overflow-free while (n + 1)^2 - 1 <= 2^63 - 1, i.e.
     * n + 1 <= floor(sqrt(2^63)) = 3037000499 (pinned by the
     * key-packing property test).
     */
    static constexpr s64 kMaxOps = 3037000498;

  private:
    /** @copydoc allocationForRange (internal reference-returning form) */
    const SegmentAllocation &
    allocateCachedRef(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi);

    /** Signature-cache key of segment [lo, hi): memoised per-op
     *  fragments plus range-relative dependency edges. */
    std::string rangeSignature(const std::vector<ScheduledOp> &ops, s64 lo,
                               s64 hi) const;

    /** Value-returning wrapper kept for the reference/greedy paths. */
    SegmentAllocation allocateCached(const std::vector<ScheduledOp> &ops,
                                     s64 lo, s64 hi);

    /** Bytes produced in [lo,hi) and consumed at/after @p boundary. */
    s64 liveOutBytes(const std::vector<ScheduledOp> &ops, s64 lo, s64 hi,
                     s64 boundary) const;

    /** Bytes consumed by [lo,hi) that were produced before @p lo. */
    s64 inboundBytes(const std::vector<ScheduledOp> &ops, s64 lo,
                     s64 hi) const;

    /** Inter-segment cost entering segment [lo,hi) from a predecessor
     *  plan (write-back + switch + rewrite). */
    void interCost(const std::vector<ScheduledOp> &ops,
                   const SegmentAllocation &prev, s64 prev_lo, s64 lo, s64 hi,
                   const SegmentAllocation &cur, s64 phys_compute,
                   SegmentDecision *decision) const;

    /** Feasible segment starts per boundary: [minStart[i], i). */
    std::vector<s64> minStarts(const std::vector<ScheduledOp> &ops) const;

    ScheduleResult runDp(const std::vector<ScheduledOp> &ops);
    ScheduleResult runDpReference(const std::vector<ScheduledOp> &ops);
    ScheduleResult runGreedy(const std::vector<ScheduledOp> &ops);

    /** Fill latency totals + physical mode tracking over the chosen
     *  segment list. */
    ScheduleResult finalize(const std::vector<ScheduledOp> &ops,
                            std::vector<std::pair<s64, s64>> ranges);

    const CostModel *cost_;
    SegmenterOptions options_;
    /** Search pool (searchThreads > 1 only). Declared before the
     *  allocator, which captures the raw pointer at construction. */
    std::unique_ptr<TaskPool> pool_;
    DualModeAllocator allocator_;

    /** Cross-run signature cache: segment shape -> allocation. Node
     *  stability matters — the range cache stores pointers into it. */
    std::unordered_map<std::string, SegmentAllocation> cache_;
    s64 cacheHits_ = 0;
    s64 cacheMisses_ = 0;

    /** @{ Per-run acceleration structures (rebuilt by run()). */
    /** key lo * (n+1) + hi -> allocation in cache_ */
    FlatRangeMap<const SegmentAllocation *> rangeCache_;
    std::vector<s64> lastConsumer_;  ///< per op: max consumer index or -1
    std::vector<s64> maxEdgeBytes_;  ///< per op: widest outgoing edge
    std::vector<s64> prefixOutput_;  ///< prefix sums of work.outputBytes
    std::vector<std::string> opSig_; ///< per-op signature fragment
    /** Identity of the ops list the positional caches were built for
     *  (allocationForRange rebuilds on mismatch). */
    const ScheduledOp *cachedOps_ = nullptr;
    /** @} */
};

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_SEGMENTER_HPP
