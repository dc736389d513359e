/** @file Tests for the DP network segmenter (Alg. 1). */

#include <gtest/gtest.h>

#include <functional>

#include "compiler/segmenter.hpp"
#include "models/model_zoo.hpp"
#include "obs/obs.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

SegmenterOptions
dualModeDp()
{
    SegmenterOptions o;
    o.useDp = true;
    return o;
}

TEST(Segmenter, CoversAllOpsExactlyOnce)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);
    Graph g = testing::chainMlp(6);
    auto ops = flattenGraph(g, deha);

    Segmenter seg(cost, dualModeDp());
    ScheduleResult r = seg.run(ops);
    ASSERT_TRUE(r.feasible());
    s64 covered = 0;
    s64 prev_hi = 0;
    for (const SegmentDecision &d : r.segments) {
        EXPECT_EQ(d.lo, prev_hi);
        EXPECT_GT(d.hi, d.lo);
        covered += d.hi - d.lo;
        prev_hi = d.hi;
        EXPECT_LE(d.alloc.plan.total(), deha.config().numSwitchArrays);
    }
    EXPECT_EQ(covered, static_cast<s64>(ops.size()));
}

TEST(Segmenter, DpNoWorseThanGreedy)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);

    for (u64 seed = 0; seed < 5; ++seed) {
        Graph g = testing::chainMlp(5 + static_cast<s64>(seed), 48, 2);
        auto ops = flattenGraph(g, deha);

        Segmenter dp(cost, dualModeDp());
        SegmenterOptions greedy_opts = dualModeDp();
        greedy_opts.useDp = false;
        Segmenter greedy(cost, greedy_opts);

        Cycles dp_total = dp.run(ops).latency.total();
        Cycles greedy_total = greedy.run(ops).latency.total();
        EXPECT_LE(dp_total, greedy_total) << "seed " << seed;
    }
}

TEST(Segmenter, DpMatchesBruteForceOnSmallChains)
{
    Deha deha(testing::tinyChip(6));
    CostModel cost(deha);
    // dim 32 => 2x2 = 4 tiles per op: fits the sub-op budget, so the
    // flattened list stays a plain chain (one edge per boundary), which
    // is what the brute-force cost replication below assumes.
    Graph g = testing::chainMlp(4, 32, 2);
    auto ops = flattenGraph(g, deha);
    const s64 n = static_cast<s64>(ops.size());
    ASSERT_EQ(n, 4);

    Segmenter dp(cost, dualModeDp());
    Cycles dp_total = dp.run(ops).latency.total();

    // Enumerate every segmentation as a bitmask of boundaries and
    // price it through the same finalize path (greedy segmenter with
    // forced ranges is not exposed, so re-run DP pieces manually).
    Cycles best = kInfCycles;
    for (s64 mask = 0; mask < (1 << (n - 1)); ++mask) {
        std::vector<std::pair<s64, s64>> ranges;
        s64 lo = 0;
        for (s64 i = 0; i < n; ++i) {
            bool cut = i + 1 == n || (mask >> i) & 1;
            if (cut) {
                ranges.emplace_back(lo, i + 1);
                lo = i + 1;
            }
        }
        // Price this segmentation by mirroring the segmenter's cost
        // accounting through the public cost-model pieces.
        DualModeAllocator alloc(cost, dualModeDp().alloc);
        bool feasible = true;
        Cycles total = 0;
        SegmentAllocation prev;
        bool has_prev = false;
        s64 prev_lo = -1;
        s64 phys = deha.config().numSwitchArrays;
        for (auto [seg_lo, seg_hi] : ranges) {
            SegmentAllocation cur =
                alloc.allocate(makeSegmentView(ops, seg_lo, seg_hi));
            if (!cur.feasible()) {
                feasible = false;
                break;
            }
            total += cur.intraLatency;
            // Switch cost.
            SwitchDelta delta = deha.switchesBetween(phys, cur.plan);
            total += deha.switchLatency(delta);
            phys = deha.applySwitches(phys, delta);
            // Rewrite cost (Eq. 2).
            std::vector<OpWorkload> ws;
            for (s64 i = seg_lo; i < seg_hi; ++i)
                ws.push_back(ops[static_cast<std::size_t>(i)].work);
            total += cost.weightRewriteLatency(ws, cur.allocs);
            // Boundary traffic: chain => the single cross edge, plus
            // network outputs at the very end.
            if (has_prev) {
                s64 edge = ops[static_cast<std::size_t>(seg_lo)]
                               .reuseBytes.empty()
                         ? 0
                         : ops[static_cast<std::size_t>(seg_lo)].reuseBytes[0];
                s64 carry_cap = deha.config().bufferBytes
                              + std::min(prev.plan.memoryArrays,
                                         cur.plan.memoryArrays)
                                    * deha.config().arrayMemoryBytes();
                s64 carried = std::min(edge, carry_cap);
                total += cost.mainMemoryTransfer(edge - carried) * 2;
            }
            (void)prev_lo;
            prev = cur;
            has_prev = true;
            prev_lo = seg_lo;
        }
        if (feasible) {
            total += cost.mainMemoryTransfer(
                ops.back().liveOutBytes); // final output store
            best = std::min(best, total);
        }
    }
    // The DP must achieve the brute-force optimum.
    EXPECT_EQ(dp_total, best);
}

TEST(Segmenter, CacheHitsOnRepeatedBlocks)
{
    Deha deha(ChipConfig::dynaplasia());
    CostModel cost(deha);
    TransformerConfig cfg = TransformerConfig::bertBase();
    cfg.layers = 4; // four identical blocks
    Graph g = buildTransformerPrefill(cfg, 1, 64);
    auto ops = flattenGraph(g, deha);

    Segmenter seg(cost, dualModeDp());
    ScheduleResult r = seg.run(ops);
    ASSERT_TRUE(r.feasible());
    // Identical per-layer segments must be served from the cache.
    EXPECT_GT(seg.cacheHits(), seg.cacheMisses());
}

TEST(Segmenter, BreakdownComponentsNonNegative)
{
    Deha deha(ChipConfig::dynaplasia());
    CostModel cost(deha);
    Graph g = buildResNet18(1);
    auto ops = flattenGraph(g, deha);
    Segmenter seg(cost, dualModeDp());
    ScheduleResult r = seg.run(ops);
    ASSERT_TRUE(r.feasible());
    EXPECT_GT(r.latency.intra, 0);
    EXPECT_GE(r.latency.writeback, 0);
    EXPECT_GE(r.latency.modeSwitch, 0);
    EXPECT_GT(r.latency.rewrite, 0);
    EXPECT_EQ(r.latency.total(), r.latency.intra + r.latency.writeback
                                     + r.latency.modeSwitch
                                     + r.latency.rewrite);
}

TEST(Segmenter, SegmentIntraEqualsAllocLatency)
{
    Deha deha(testing::tinyChip(8));
    CostModel cost(deha);
    Graph g = testing::chainMlp(4);
    auto ops = flattenGraph(g, deha);
    Segmenter seg(cost, dualModeDp());
    ScheduleResult r = seg.run(ops);
    ASSERT_TRUE(r.feasible());
    Cycles sum = 0;
    for (const SegmentDecision &d : r.segments)
        sum += d.alloc.intraLatency;
    EXPECT_EQ(sum, r.latency.intra);
}

TEST(Segmenter, FillsOnlyTheChosenSegments)
{
    // The DP prices every candidate segment and fills the memory split
    // of only the ones it picks, once per distinct shape: one run()
    // emits at most one alloc.fill span per chosen segment, where
    // filling every candidate would emit one per signature-cache miss.
    // The plan stays the reference search's, which fills every
    // candidate eagerly.
    TransformerConfig config = TransformerConfig::opt6_7b();
    config.layers = 2;
    Graph graph = buildTransformerDecodeStep(config, 1, 256);
    Deha deha(ChipConfig::dynaplasia());
    CostModel cost(deha);
    PartitionOptions partition;
    partition.dualModeAware = true;
    std::vector<ScheduledOp> ops = flattenGraph(graph, deha, partition);

    obs::TraceRecorder recorder;
    obs::install(nullptr, &recorder);
    Segmenter fast(cost, dualModeDp());
    ScheduleResult schedule = fast.run(ops);
    obs::uninstall();
    ASSERT_TRUE(schedule.feasible());
    const std::string trace = recorder.exportJson();
    s64 fills = 0;
    for (std::size_t at = trace.find("\"alloc.fill\"");
         at != std::string::npos;
         at = trace.find("\"alloc.fill\"", at + 1)) {
        ++fills;
    }
    EXPECT_GT(fills, 0);
    EXPECT_LE(fills, static_cast<s64>(schedule.segments.size()));
    EXPECT_GT(fast.cacheMisses(), static_cast<s64>(schedule.segments.size()));

    SegmenterOptions reference_options = dualModeDp();
    reference_options.referenceSearch = true;
    ScheduleResult reference = Segmenter(cost, reference_options).run(ops);
    EXPECT_EQ(schedule.latency.total(), reference.latency.total());
    EXPECT_EQ(schedule.latency.intra, reference.latency.intra);
    EXPECT_EQ(schedule.latency.writeback, reference.latency.writeback);
    EXPECT_EQ(schedule.latency.modeSwitch, reference.latency.modeSwitch);
    EXPECT_EQ(schedule.latency.rewrite, reference.latency.rewrite);
    ASSERT_EQ(schedule.segments.size(), reference.segments.size());
    for (std::size_t s = 0; s < schedule.segments.size(); ++s) {
        const SegmentDecision &a = schedule.segments[s];
        const SegmentDecision &b = reference.segments[s];
        EXPECT_EQ(a.lo, b.lo) << "segment " << s;
        EXPECT_EQ(a.hi, b.hi) << "segment " << s;
        EXPECT_FALSE(a.alloc.needsFill()) << "segment " << s;
        EXPECT_EQ(a.alloc.intraLatency, b.alloc.intraLatency);
        EXPECT_EQ(a.alloc.reusedArrays, b.alloc.reusedArrays);
        EXPECT_EQ(a.interTotal(), b.interTotal()) << "segment " << s;
        EXPECT_EQ(a.storeBytes, b.storeBytes) << "segment " << s;
        EXPECT_EQ(a.loadBytes, b.loadBytes) << "segment " << s;
        EXPECT_EQ(a.carriedBytes, b.carriedBytes) << "segment " << s;
        ASSERT_EQ(a.alloc.allocs.size(), b.alloc.allocs.size());
        for (std::size_t i = 0; i < a.alloc.allocs.size(); ++i) {
            EXPECT_EQ(a.alloc.allocs[i].computeArrays,
                      b.alloc.allocs[i].computeArrays);
            EXPECT_EQ(a.alloc.allocs[i].memInArrays,
                      b.alloc.allocs[i].memInArrays)
                << "segment " << s << " op " << i;
            EXPECT_EQ(a.alloc.allocs[i].memOutArrays,
                      b.alloc.allocs[i].memOutArrays)
                << "segment " << s << " op " << i;
        }
    }
}

} // namespace
} // namespace cmswitch
