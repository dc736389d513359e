/**
 * @file
 * Unified dual-mode allocation with scheduling (paper Sec. 4.3.2).
 *
 * For one network segment the allocator chooses, per operator, the
 * number of compute-mode arrays (weight tiles x duplication factor) and
 * memory-mode arrays (input/output streaming buffers), subject to the
 * array-overlap / dependency-reuse / resource-limit constraints
 * (Eqs. 5-8), minimising the pipelined max-latency objective (Eq. 9)
 * under the Eq. 10 latency model.
 *
 * Solution strategy: the min-max objective is bisected over a latency
 * target T; at fixed T the per-operator minimum compute and memory
 * arrays are closed-form (Eq. 10 is monotone in both), and the only
 * coupling left - maximising producer->consumer buffer reuse so the
 * segment fits the chip (Eqs. 6-8) - is an integer transportation
 * problem solved exactly with the bundled MIP solver.
 */

#ifndef CMSWITCH_COMPILER_ALLOCATOR_HPP
#define CMSWITCH_COMPILER_ALLOCATOR_HPP

#include <vector>

#include "compiler/partitioner.hpp"
#include "cost/cost_model.hpp"
#include "solver/simplex.hpp"

namespace cmswitch {

/** A candidate segment handed to the allocator. */
struct SegmentView
{
    /** Workloads of the member ops, in topological order. */
    std::vector<const OpWorkload *> ops;

    /** Intra-segment dependency edge with its Eq. 6 reuse byte bound. */
    struct Edge
    {
        s64 from = 0; ///< local producer index
        s64 to = 0;   ///< local consumer index
        s64 bytes = 0;
    };
    std::vector<Edge> edges;
};

/** Build a SegmentView over ops [lo, hi) of a flattened network. */
SegmentView makeSegmentView(const std::vector<ScheduledOp> &ops, s64 lo,
                            s64 hi);

/** Allocation policy switches (what a given compiler may use). */
struct AllocatorOptions
{
    bool allowMemoryMode = true;  ///< dual-mode aware (CMSwitch only)
    bool allowDuplication = true; ///< weight duplication across arrays
    bool pipelined = true;        ///< Eq. 9 max; false = serial sum

    /**
     * true: pre-optimization behaviour — every bisection probe runs
     * the exact reuse solve (no conservative-bound shortcuts, no LP
     * warm starts). Retained for the differential tests and the
     * Fig. 18 reference measurements; Segmenter propagates its
     * SegmenterOptions::referenceSearch here. Allocation-filling
     * solves are identical in both modes by construction.
     */
    bool referenceSearch = false;
};

/** Result of allocating one segment. */
struct SegmentAllocation
{
    std::vector<OpAllocation> allocs; ///< parallel to SegmentView::ops
    ModePlan plan;                    ///< totals after reuse
    s64 reusedArrays = 0;
    Cycles intraLatency = kInfCycles;

    bool feasible() const { return intraLatency < kInfCycles; }
};

/**
 * The MIP-backed dual-mode allocator. Stateless; safe to share across
 * segments and threads.
 */
class DualModeAllocator
{
  public:
    DualModeAllocator(const CostModel &cost, AllocatorOptions options);

    /** Solve one segment; infeasible segments return
     *  intraLatency == kInfCycles. */
    SegmentAllocation allocate(const SegmentView &segment) const;

    /**
     * Reference implementation: exhaustive search over duplication
     * multiples and memory-array counts. Exponential; only usable for
     * tiny segments. Tests certify allocate() against this.
     */
    SegmentAllocation allocateExhaustive(const SegmentView &segment) const;

    const AllocatorOptions &options() const { return options_; }
    const CostModel &cost() const { return *cost_; }

  private:
    /** Per-op minimum arrays to reach latency target @p t. */
    struct Needs
    {
        bool feasible = false;
        s64 computeArrays = 0;
        s64 memoryArrays = 0;
    };
    Needs needsForTarget(const OpWorkload &w, Cycles t,
                        double dmain_share) const;

    /** Check whether target @p t fits the chip; fills the allocation.
     *  @p warm carries the reuse MIP's pivoting state across the
     *  bisection's probes (stack-owned by allocate(), so the allocator
     *  itself stays stateless and thread-safe). */
    bool tryTarget(const SegmentView &segment, Cycles t,
                   SegmentAllocation *out, LpWarmStart *warm) const;

    /** Serial-schedule greedy refinement (PUMA-style compilers). */
    SegmentAllocation allocateSerial(const SegmentView &segment) const;

    const CostModel *cost_;
    AllocatorOptions options_;
};

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_ALLOCATOR_HPP
