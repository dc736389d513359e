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
 *
 * One allocate() call evaluates the target-independent part of the
 * closed form (per-op overhead, base rates, D_main share, caps) once,
 * and its probes only redo what depends on T. A probe first tries two
 * bounds on the reuse optimum: the greedy pool assignment is a feasible
 * reuse (lower bound), and the smaller of two sums caps it from above.
 * One sums each edge's cap, clipped to the memory arrays of both ends.
 * The other is the vertex bound: the MIP's split constraint caps each
 * op's in- plus out-reuse at its memory arrays, so twice the reuse is
 * at most the sum over ops of min(memory arrays, the op's clipped edge
 * caps summed). Within the call the edges are fixed, so a probe's
 * reuse MIP is determined by its per-op memory-array vector; a probe
 * the bounds leave open and whose vector was already solved in the
 * call takes the optimum from a memo instead.
 *
 * The search ends in one of two ways. allocate() fills: it runs the
 * cold filling solve at the final target, which also decides how each
 * op's memory arrays split into input and output buffers. price()
 * returns what the segmentation DP reads - per-op compute arrays, plan
 * totals, reusedArrays and intraLatency - none of which depends on
 * that split, and keeps the final target so fill() can split later.
 * It takes the reuse optimum at that target by the first rule that
 * applies: 0 without edges or memory mode; the greedy pool reuse for a
 * segment too wide for the MIP (what the fill computes there); the
 * greedy bound when it meets the upper bound; the probe memo; else one
 * warm-started MIP, of which only the value is read. The DP prices
 * every candidate segment and fills only the ones it picks.
 *
 * Probe constants, memo, warm start and scratch all live on the
 * calling function's stack, so the allocator stays stateless and one
 * instance can be shared across threads.
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
     * warm starts), and price() fills eagerly, as allocate() does.
     * Retained for the differential tests and the Fig. 18 reference
     * measurements; Segmenter propagates its
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

    /**
     * Nonzero while the input/output split of the memory arrays is open
     * (DualModeAllocator::price() leaves each op's memory arrays in
     * memOutArrays): the latency target the search settled on, at
     * which DualModeAllocator::fill() solves the split. 0 once split.
     */
    Cycles fillTarget = 0;

    bool feasible() const { return intraLatency < kInfCycles; }
    bool needsFill() const { return fillTarget != 0; }
};

/**
 * The MIP-backed dual-mode allocator. Stateless; safe to share across
 * segments and threads.
 */
class DualModeAllocator
{
  public:
    DualModeAllocator(const CostModel &cost, AllocatorOptions options);

    /** Solve one segment, memory split included; infeasible segments
     *  return intraLatency == kInfCycles. */
    SegmentAllocation allocate(const SegmentView &segment) const;

    /**
     * allocate() without the filling solve: the same allocation but
     * for the input/output split of each op's memory arrays, which
     * stays open until fill(). Under referenceSearch it is allocate().
     */
    SegmentAllocation price(const SegmentView &segment) const;

    /**
     * Split a priced allocation's memory arrays exactly as allocate()
     * does, by the cold filling solve at its fillTarget, in place. A
     * no-op on an allocation that needs no fill. @p segment must be
     * the segment it was priced for.
     */
    void fill(const SegmentView &segment, SegmentAllocation *alloc) const;

    /**
     * Reference implementation: exhaustive search over duplication
     * multiples and memory-array counts. Exponential; only usable for
     * tiny segments. Tests certify allocate() against this.
     */
    SegmentAllocation allocateExhaustive(const SegmentView &segment) const;

    const AllocatorOptions &options() const { return options_; }
    const CostModel &cost() const { return *cost_; }

  private:
    /** Target-independent inputs of needsForTarget() for one op. */
    struct OpConstants
    {
        Cycles fixed = 0;         ///< fixedOverhead(w)
        double perBundle = 0.0;   ///< computeRate(w, w.weightTiles)
        double memoryFloor = 0.0; ///< memoryRate(w, 0, share)
        double dmainBw = 0.0;     ///< share * chip.dMain()
        s64 maxMemory = 0;        ///< maxUsefulMemoryArrays(w)
        s64 dupCap = 1;           ///< largest duplication multiple
    };

    /** Per-op minimum arrays to reach latency target @p t. */
    struct Needs
    {
        bool feasible = false;
        s64 computeArrays = 0;
        s64 memoryArrays = 0;
    };
    Needs needsForTarget(const OpWorkload &w, const OpConstants &c,
                        Cycles t) const;

    /**
     * What one allocate(), price() or fill() call owns on its stack
     * and lends to each of its probes: the per-op constants, the reuse
     * MIP's warm start, the probe memo and scratch vectors. None of it
     * outlives the call, so the allocator itself stays stateless and
     * thread-safe.
     */
    struct CallState
    {
        std::vector<double> shares;      ///< D_main shares, per op
        std::vector<OpConstants> consts; ///< per op
        /** Eq. 6 reuse cap of each edge, in arrays. */
        std::vector<s64> edgeCaps;
        /** Pivoting state carried across the bisection's reuse MIPs. */
        LpWarmStart warm;
        /** Probe memo: the per-op memory-array vectors whose reuse MIP
         *  this call has solved (n_ops values each, concatenated), and
         *  the optimal reuse of each. With the edges fixed for the
         *  call, that vector is the whole MIP instance. */
        std::vector<s64> memoKeys;
        std::vector<s64> memoReuse;
        /** @{ Scratch every probe overwrites. */
        std::vector<Needs> needs;
        std::vector<s64> memIn;
        std::vector<s64> memOut;
        std::vector<s64> pool;
        std::vector<s64> incident; ///< vertex bound: clipped caps per op
        /** @} */

        /** The memoized optimum for the current needs, or nullptr. */
        const s64 *memoFind() const;
        /** Memoize @p reuse as the optimum for the current needs. */
        void memoStore(s64 reuse);
    };

    /** The per-call constants and sized scratch of @p segment. */
    CallState prepare(const SegmentView &segment) const;

    /** The latency bisection; ends in the filling solve when @p fill,
     *  else in the price step. */
    SegmentAllocation search(const SegmentView &segment, bool fill) const;

    /** Set call->needs for target @p t and their array total; false
     *  when some op cannot reach @p t. */
    bool needsAt(const SegmentView &segment, Cycles t, CallState *call,
                 s64 *total) const;

    /** Whether the segment's reuse is solved by the MIP (false: no
     *  reuse is possible, or the segment is too wide for the MIP and
     *  takes the greedy reuse). */
    bool solvesExactly(const SegmentView &segment) const;

    /** The smaller of the per-edge and vertex upper bounds on the
     *  reuse optimum at the current needs. */
    s64 reuseUpperBound(const SegmentView &segment, CallState *call) const;

    /** Greedy pool reuse at the current needs, a lower bound on the
     *  optimum. Leaves the claimed arrays in memIn/memOut and the
     *  unclaimed ones in pool. */
    s64 greedyReuse(const SegmentView &segment, CallState *call) const;

    /** The reuse MIP at the current needs, from @p warm's basis when
     *  non-null and cold otherwise; writes its split to memIn/memOut
     *  and returns its optimum. */
    s64 exactReuse(const SegmentView &segment, CallState *call,
                   LpWarmStart *warm) const;

    /** The price step's reuse optimum at the current needs, mostly
     *  without a MIP (the rules in the file comment). */
    s64 pricedReuse(const SegmentView &segment, CallState *call) const;

    /** Write the allocation of the current needs and memIn/memOut split
     *  with @p reuse reused arrays to @p out. */
    void writeAllocation(const SegmentView &segment, s64 reuse,
                         const CallState &call, SegmentAllocation *out) const;

    /** Check whether target @p t fits the chip; fills the allocation
     *  when @p out is non-null. @p call is the caller's own state
     *  (constants, memo, warm start, scratch), so probes share nothing
     *  across calls and the allocator stays stateless and
     *  thread-safe. */
    bool tryTarget(const SegmentView &segment, Cycles t,
                   SegmentAllocation *out, CallState *call) const;

    /** Serial-schedule greedy refinement (PUMA-style compilers). */
    SegmentAllocation allocateSerial(const SegmentView &segment) const;

    const CostModel *cost_;
    AllocatorOptions options_;
};

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_ALLOCATOR_HPP
