/** @file Tests for the MIP-based dual-mode allocator (Sec. 4.3.2). */

#include <gtest/gtest.h>

#include "compiler/allocator.hpp"
#include "models/model_zoo.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

SegmentView
viewOf(const std::vector<OpWorkload> &ws,
       std::vector<SegmentView::Edge> edges = {})
{
    SegmentView v;
    for (const OpWorkload &w : ws)
        v.ops.push_back(&w);
    v.edges = std::move(edges);
    return v;
}

TEST(Allocator, SingleOpGetsMinimalFeasible)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);
    DualModeAllocator alloc(cost, AllocatorOptions{});

    Rng rng(1);
    std::vector<OpWorkload> ws = {testing::randomWorkload(rng, deha.config())};
    SegmentAllocation a = alloc.allocate(viewOf(ws));
    ASSERT_TRUE(a.feasible());
    EXPECT_GE(a.allocs[0].computeArrays, ws[0].weightTiles);
    EXPECT_LE(a.plan.total(), deha.config().numSwitchArrays);
    EXPECT_EQ(a.intraLatency, cost.opLatency(ws[0], a.allocs[0]));
}

TEST(Allocator, InfeasibleWhenWeightsExceedChip)
{
    Deha deha(testing::tinyChip(4));
    CostModel cost(deha);
    DualModeAllocator alloc(cost, AllocatorOptions{});
    OpWorkload w;
    w.name = "huge";
    w.weightTiles = 5;
    w.utilization = 1.0;
    w.movingRows = 4;
    w.macs = 1000;
    w.weightBytes = 5 * 16 * 16;
    w.inputBytes = 100;
    w.outputBytes = 100;
    w.aiMacsPerByte = 0.5;
    std::vector<OpWorkload> ws = {w};
    EXPECT_FALSE(alloc.allocate(viewOf(ws)).feasible());
}

TEST(Allocator, MemoryModeOffMeansZeroMemoryArrays)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);
    AllocatorOptions opts;
    opts.allowMemoryMode = false;
    DualModeAllocator alloc(cost, opts);

    Rng rng(3);
    std::vector<OpWorkload> ws = {testing::randomWorkload(rng, deha.config()),
                                  testing::randomWorkload(rng, deha.config())};
    SegmentAllocation a = alloc.allocate(viewOf(ws));
    ASSERT_TRUE(a.feasible());
    for (const OpAllocation &oa : a.allocs)
        EXPECT_EQ(oa.memoryArrays(), 0);
    EXPECT_EQ(a.plan.memoryArrays, 0);
}

TEST(Allocator, DualModeNeverSlowerThanComputeOnly)
{
    Deha deha(testing::tinyChip(10));
    CostModel cost(deha);
    AllocatorOptions dual;
    AllocatorOptions fixed;
    fixed.allowMemoryMode = false;
    DualModeAllocator dual_alloc(cost, dual);
    DualModeAllocator fixed_alloc(cost, fixed);

    Rng rng(11);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<OpWorkload> ws;
        s64 n = rng.nextInt(1, 3);
        for (s64 i = 0; i < n; ++i)
            ws.push_back(testing::randomWorkload(rng, deha.config(), 2));
        SegmentView v = viewOf(ws);
        SegmentAllocation d = dual_alloc.allocate(v);
        SegmentAllocation f = fixed_alloc.allocate(v);
        if (!f.feasible())
            continue;
        ASSERT_TRUE(d.feasible());
        EXPECT_LE(d.intraLatency, f.intraLatency) << "trial " << trial;
    }
}

TEST(Allocator, ReuseEnablesTightPacking)
{
    // Two chained ops whose memory needs exceed the chip unless the
    // producer's output buffer doubles as the consumer's input buffer.
    Deha deha(testing::tinyChip(6));
    CostModel cost(deha);
    const ChipConfig &chip = deha.config();

    OpWorkload a;
    a.name = "a";
    a.weightTiles = 1;
    a.utilization = 1.0;
    a.movingRows = 256;
    a.weightBytes = chip.arrayRows * chip.arrayCols;
    a.macs = a.weightBytes * a.movingRows;
    a.inputBytes = 2 * chip.arrayMemoryBytes();
    a.outputBytes = 2 * chip.arrayMemoryBytes();
    a.aiMacsPerByte = 0.4;
    OpWorkload b = a;
    b.name = "b";

    std::vector<OpWorkload> ws = {a, b};
    SegmentView v = viewOf(
        ws, {SegmentView::Edge{0, 1, 2 * chip.arrayMemoryBytes()}});

    DualModeAllocator alloc(cost, AllocatorOptions{});
    SegmentAllocation s = alloc.allocate(v);
    ASSERT_TRUE(s.feasible());
    s64 gross = 0;
    for (const OpAllocation &oa : s.allocs)
        gross += oa.total();
    EXPECT_EQ(gross - s.reusedArrays,
              s.plan.computeArrays + s.plan.memoryArrays);
    EXPECT_LE(s.plan.total(), chip.numSwitchArrays);
}

/** Property: bisection+MIP matches exhaustive search on tiny segments. */
class AllocatorVsExhaustive : public ::testing::TestWithParam<int>
{
};

TEST_P(AllocatorVsExhaustive, SameOptimalLatency)
{
    Rng rng(static_cast<u64>(GetParam()) * 104729 + 7);
    Deha deha(testing::tinyChip(rng.nextInt(6, 10)));
    CostModel cost(deha);
    AllocatorOptions opts;
    DualModeAllocator alloc(cost, opts);

    std::vector<OpWorkload> ws;
    s64 n = rng.nextInt(1, 2);
    for (s64 i = 0; i < n; ++i)
        ws.push_back(testing::randomWorkload(rng, deha.config(), 2));
    std::vector<SegmentView::Edge> edges;
    if (n == 2 && rng.nextInt(0, 1) == 1)
        edges.push_back(SegmentView::Edge{0, 1, rng.nextInt(64, 2048)});
    SegmentView v = viewOf(ws, edges);

    SegmentAllocation fast = alloc.allocate(v);
    SegmentAllocation brute = alloc.allocateExhaustive(v);
    ASSERT_EQ(fast.feasible(), brute.feasible());
    if (fast.feasible()) {
        EXPECT_EQ(fast.intraLatency, brute.intraLatency)
            << "fast plan: " << fast.plan.computeArrays << "c/"
            << fast.plan.memoryArrays << "m vs brute "
            << brute.plan.computeArrays << "c/" << brute.plan.memoryArrays
            << "m";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorVsExhaustive,
                         ::testing::Range(0, 20));

TEST(AllocatorSerial, GreedyImprovesOnMinimal)
{
    Deha deha(testing::tinyChip(12));
    CostModel cost(deha);
    AllocatorOptions opts;
    opts.pipelined = false;
    opts.allowMemoryMode = false;
    DualModeAllocator alloc(cost, opts);

    Rng rng(5);
    std::vector<OpWorkload> ws = {testing::randomWorkload(rng, deha.config()),
                                  testing::randomWorkload(rng, deha.config())};
    SegmentView v = viewOf(ws);
    SegmentAllocation a = alloc.allocate(v);
    ASSERT_TRUE(a.feasible());

    // Serial latency equals the sum of op latencies.
    Cycles sum = 0;
    for (std::size_t i = 0; i < ws.size(); ++i)
        sum += cost.opLatency(ws[i], a.allocs[i]);
    EXPECT_EQ(a.intraLatency, sum);

    // And it is no worse than the bare minimal allocation.
    Cycles minimal = 0;
    for (const OpWorkload &w : ws)
        minimal += cost.opLatency(w, OpAllocation{w.weightTiles, 0, 0});
    EXPECT_LE(a.intraLatency, minimal);
}

/**
 * The probe memo: within one allocate() call the edges are fixed, so a
 * probe whose per-op memory-array vector was already solved exactly
 * takes the optimum from the memo instead of solving the reuse MIP
 * again. The segment is layer 0's attention output of opt-6.7b decode
 * (KV 256, 2 layers) on dynaplasia: ops [68, 75) of the flattened
 * graph, l0.sv.part0..1 and l0.wo.part0..4. Seven of its bisection
 * probes leave the per-edge bound and the greedy assignment open, all
 * with the same memory-array vector. The vertex bound now decides all
 * seven, so only the filling solve is left; the memo's saving is
 * pinned on a wider segment below.
 */
TEST(AllocatorMemo, RepeatedExactProbesSolveOnce)
{
    TransformerConfig config = TransformerConfig::opt6_7b();
    config.layers = 2;
    Graph graph = buildTransformerDecodeStep(config, 1, 256);
    Deha deha(ChipConfig::dynaplasia());
    CostModel cost(deha);
    PartitionOptions partition;
    partition.dualModeAware = true;
    std::vector<ScheduledOp> ops = flattenGraph(graph, deha, partition);
    ASSERT_GE(ops.size(), 75u);
    ASSERT_EQ(ops[68].work.name, "l0.sv.part0");
    ASSERT_EQ(ops[74].work.name, "l0.wo.part4");
    SegmentView segment = makeSegmentView(ops, 68, 75);

    // Reuse MIPs one allocate() runs: one per exact-solve probe plus
    // the filling solve without the memo, one per distinct probe
    // vector plus the filling solve with it.
    constexpr s64 kSolvesWithoutMemo = 8;
    constexpr s64 kSolvesWithMemo = 2;
    static_assert(kSolvesWithMemo < kSolvesWithoutMemo);

    obs::MetricsRegistry registry;
    obs::install(&registry, nullptr);
    SegmentAllocation fast =
        DualModeAllocator(cost, AllocatorOptions{}).allocate(segment);
    const s64 solves = registry.counter(obs::Met::kMipSolves).get();
    obs::uninstall();
    EXPECT_LE(solves, kSolvesWithMemo);

    // The memo changes no verdict, so the bisection lands where the
    // reference search (every probe solved exactly, no memo) does.
    AllocatorOptions reference_options;
    reference_options.referenceSearch = true;
    SegmentAllocation reference =
        DualModeAllocator(cost, reference_options).allocate(segment);
    ASSERT_TRUE(fast.feasible());
    EXPECT_EQ(fast.intraLatency, reference.intraLatency);
    EXPECT_EQ(fast.reusedArrays, reference.reusedArrays);
    EXPECT_EQ(fast.plan.computeArrays, reference.plan.computeArrays);
    EXPECT_EQ(fast.plan.memoryArrays, reference.plan.memoryArrays);
    ASSERT_EQ(fast.allocs.size(), reference.allocs.size());
    for (std::size_t i = 0; i < fast.allocs.size(); ++i) {
        EXPECT_EQ(fast.allocs[i].computeArrays,
                  reference.allocs[i].computeArrays) << "op " << i;
        EXPECT_EQ(fast.allocs[i].memInArrays,
                  reference.allocs[i].memInArrays) << "op " << i;
        EXPECT_EQ(fast.allocs[i].memOutArrays,
                  reference.allocs[i].memOutArrays) << "op " << i;
    }
}

/** Flattened opt-6.7b decode (KV 256, 2 layers) on dynaplasia. */
std::vector<ScheduledOp>
decodeOps(const Deha &deha)
{
    TransformerConfig config = TransformerConfig::opt6_7b();
    config.layers = 2;
    Graph graph = buildTransformerDecodeStep(config, 1, 256);
    PartitionOptions partition;
    partition.dualModeAware = true;
    return flattenGraph(graph, deha, partition);
}

/** The reuse MIPs one allocate() of @p segment runs. */
s64
countSolves(const CostModel &cost, const SegmentView &segment,
            SegmentAllocation *out)
{
    obs::MetricsRegistry registry;
    obs::install(&registry, nullptr);
    *out = DualModeAllocator(cost, AllocatorOptions{}).allocate(segment);
    const s64 solves = registry.counter(obs::Met::kMipSolves).get();
    obs::uninstall();
    return solves;
}

/** @p fast equals the reference search's allocation field for field. */
void
expectReferenceAllocation(const CostModel &cost, const SegmentView &segment,
                          const SegmentAllocation &fast)
{
    AllocatorOptions reference_options;
    reference_options.referenceSearch = true;
    SegmentAllocation reference =
        DualModeAllocator(cost, reference_options).allocate(segment);
    ASSERT_TRUE(fast.feasible());
    EXPECT_EQ(fast.intraLatency, reference.intraLatency);
    EXPECT_EQ(fast.reusedArrays, reference.reusedArrays);
    EXPECT_EQ(fast.plan.computeArrays, reference.plan.computeArrays);
    EXPECT_EQ(fast.plan.memoryArrays, reference.plan.memoryArrays);
    EXPECT_EQ(fast.fillTarget, reference.fillTarget);
    ASSERT_EQ(fast.allocs.size(), reference.allocs.size());
    for (std::size_t i = 0; i < fast.allocs.size(); ++i) {
        EXPECT_EQ(fast.allocs[i].computeArrays,
                  reference.allocs[i].computeArrays) << "op " << i;
        EXPECT_EQ(fast.allocs[i].memInArrays,
                  reference.allocs[i].memInArrays) << "op " << i;
        EXPECT_EQ(fast.allocs[i].memOutArrays,
                  reference.allocs[i].memOutArrays) << "op " << i;
    }
}

/**
 * The memo behind the bounds: ops [176, 187) of the same decode graph,
 * l0.ffn.fc1.part84 to l0.ffn.fc2.part9. Fourteen of its probes leave
 * every bound open, all with the same memory-array vector, so the memo
 * turns fifteen reuse MIPs (fourteen probes and the fill) into two.
 */
TEST(AllocatorMemo, ProbesTheBoundsLeaveOpenSolveOnce)
{
    constexpr s64 kSolvesWithoutMemo = 15;
    constexpr s64 kSolvesWithMemo = 2;
    static_assert(kSolvesWithMemo < kSolvesWithoutMemo);

    Deha deha(ChipConfig::dynaplasia());
    CostModel cost(deha);
    std::vector<ScheduledOp> ops = decodeOps(deha);
    ASSERT_GE(ops.size(), 187u);
    ASSERT_EQ(ops[176].work.name, "l0.ffn.fc1.part84");
    ASSERT_EQ(ops[186].work.name, "l0.ffn.fc2.part9");
    SegmentView segment = makeSegmentView(ops, 176, 187);

    SegmentAllocation fast;
    EXPECT_LE(countSolves(cost, segment, &fast), kSolvesWithMemo);
    expectReferenceAllocation(cost, segment, fast);
}

/**
 * The vertex bound: the split constraint caps each op's in- plus
 * out-reuse at its memory arrays, so twice the reuse is at most the
 * per-op sum of min(memory arrays, the op's clipped edge caps). The
 * segment is ops [65, 73) of the same decode graph, l0.wv.part21 to
 * l0.wo.part2. Three of its probes, each with its own memory-array
 * vector, leave the per-edge bound and the greedy assignment open, so
 * without the vertex bound each runs the reuse MIP: four solves with
 * the fill. The vertex bound proves all three infeasible, which leaves
 * the fill alone, and the bisection still lands where the reference
 * search does.
 */
TEST(AllocatorVertexBound, DecidesProbesTheEdgeBoundLeavesOpen)
{
    constexpr s64 kSolvesWithoutVertexBound = 4;
    constexpr s64 kSolvesWithVertexBound = 1;
    static_assert(kSolvesWithVertexBound < kSolvesWithoutVertexBound);

    Deha deha(ChipConfig::dynaplasia());
    CostModel cost(deha);
    std::vector<ScheduledOp> ops = decodeOps(deha);
    ASSERT_GE(ops.size(), 73u);
    ASSERT_EQ(ops[65].work.name, "l0.wv.part21");
    ASSERT_EQ(ops[72].work.name, "l0.wo.part2");
    SegmentView segment = makeSegmentView(ops, 65, 73);

    SegmentAllocation fast;
    EXPECT_LE(countSolves(cost, segment, &fast), kSolvesWithVertexBound);
    expectReferenceAllocation(cost, segment, fast);
}

} // namespace
} // namespace cmswitch
