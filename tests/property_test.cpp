/**
 * @file
 * Parameterized property sweeps over randomly generated inputs:
 * monotonicity of the Eq. 10 latency model, allocator resource
 * invariants (Eqs. 5-8), DP-vs-greedy dominance, and serializer
 * round-trips. These complement the targeted unit tests with
 * breadth.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "compiler/segmenter.hpp"
#include "graph/serialize.hpp"
#include "models/model_zoo.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

/** Random small DAG of ScheduledOps: workloads sized for the tiny
 *  chips, dependency edges reaching up to three ops back. */
std::vector<ScheduledOp>
randomScheduledOps(Rng &rng, const ChipConfig &chip, s64 n)
{
    std::vector<ScheduledOp> ops;
    ops.reserve(static_cast<std::size_t>(n));
    for (s64 i = 0; i < n; ++i) {
        ScheduledOp op;
        op.work = testing::randomWorkload(rng, chip, 3);
        op.work.opId = static_cast<OpId>(i);
        op.liveOutBytes = rng.nextInt(0, 4096);
        for (s64 p = std::max<s64>(0, i - 3); p < i; ++p) {
            if (rng.nextInt(0, 2) == 0) {
                op.preds.push_back(p);
                op.reuseBytes.push_back(rng.nextInt(64, 8192));
            }
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

void
expectSameAllocation(const SegmentAllocation &cached,
                     const SegmentAllocation &fresh, s64 lo, s64 hi)
{
    EXPECT_EQ(cached.intraLatency, fresh.intraLatency)
        << "range [" << lo << ", " << hi << ")";
    EXPECT_EQ(cached.reusedArrays, fresh.reusedArrays);
    EXPECT_EQ(cached.plan.computeArrays, fresh.plan.computeArrays);
    EXPECT_EQ(cached.plan.memoryArrays, fresh.plan.memoryArrays);
    ASSERT_EQ(cached.allocs.size(), fresh.allocs.size());
    for (std::size_t i = 0; i < cached.allocs.size(); ++i) {
        EXPECT_EQ(cached.allocs[i].computeArrays,
                  fresh.allocs[i].computeArrays);
        EXPECT_EQ(cached.allocs[i].memInArrays, fresh.allocs[i].memInArrays);
        EXPECT_EQ(cached.allocs[i].memOutArrays,
                  fresh.allocs[i].memOutArrays);
    }
}

class Seeded : public ::testing::TestWithParam<int>
{
  protected:
    Rng rng_{static_cast<u64>(GetParam()) * 1099511628211ull + 5};
};

using CostMonotonicity = Seeded;

TEST_P(CostMonotonicity, LatencyNonIncreasingInResources)
{
    Deha deha(testing::tinyChip(16));
    CostModel cost(deha);
    for (int trial = 0; trial < 20; ++trial) {
        OpWorkload w = testing::randomWorkload(rng_, deha.config(), 4);
        // Compute axis (at fixed memory).
        Cycles prev = kInfCycles;
        for (s64 c = w.weightTiles; c <= 4 * w.weightTiles;
             c += w.weightTiles) {
            Cycles l = cost.opLatency(w, OpAllocation{c, 1, 1});
            EXPECT_LE(l, prev);
            prev = l;
        }
        // Memory axis (at fixed compute).
        prev = kInfCycles;
        for (s64 m = 0; m <= 12; ++m) {
            Cycles l = cost.opLatency(w, OpAllocation{w.weightTiles, m, 0});
            EXPECT_LE(l, prev);
            prev = l;
        }
        // A smaller D_main share can never make an op faster.
        Cycles full = cost.opLatency(w, OpAllocation{w.weightTiles, 2, 2},
                                     1.0);
        Cycles half = cost.opLatency(w, OpAllocation{w.weightTiles, 2, 2},
                                     0.5);
        EXPECT_LE(full, half);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostMonotonicity, ::testing::Range(0, 8));

using AllocatorInvariants = Seeded;

TEST_P(AllocatorInvariants, ResourceAndConsistency)
{
    Deha deha(testing::tinyChip(static_cast<s64>(rng_.nextInt(8, 16))));
    CostModel cost(deha);
    DualModeAllocator alloc(cost, AllocatorOptions{});

    for (int trial = 0; trial < 10; ++trial) {
        std::vector<OpWorkload> ws;
        s64 n = rng_.nextInt(1, 4);
        for (s64 i = 0; i < n; ++i) {
            ws.push_back(testing::randomWorkload(rng_, deha.config(), 3));
            ws.back().opId = static_cast<OpId>(i);
        }
        SegmentView view;
        for (const OpWorkload &w : ws)
            view.ops.push_back(&w);
        for (s64 i = 1; i < n; ++i) {
            if (rng_.nextInt(0, 1)) {
                view.edges.push_back(SegmentView::Edge{
                    i - 1, i, rng_.nextInt(64, 8192)});
            }
        }

        SegmentAllocation a = alloc.allocate(view);
        if (!a.feasible())
            continue;

        // Eq. 8: the packed segment fits the chip.
        EXPECT_LE(a.plan.total(), deha.config().numSwitchArrays);
        s64 gross = 0;
        for (std::size_t i = 0; i < a.allocs.size(); ++i) {
            // Weights always fit their compute arrays.
            EXPECT_GE(a.allocs[i].computeArrays, ws[i].weightTiles);
            EXPECT_GE(a.allocs[i].memInArrays, 0);
            EXPECT_GE(a.allocs[i].memOutArrays, 0);
            gross += a.allocs[i].total();
        }
        EXPECT_EQ(gross - a.reusedArrays, a.plan.total());

        // The claimed latency is exactly what the cost model computes.
        std::vector<OpAllocation> as = a.allocs;
        EXPECT_EQ(a.intraLatency, cost.segmentLatency(ws, as));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorInvariants, ::testing::Range(0, 8));

using DpDominance = Seeded;

TEST_P(DpDominance, DpNeverWorseThanGreedy)
{
    Deha deha(testing::tinyChip(10));
    CostModel cost(deha);
    Graph g = testing::chainMlp(static_cast<s64>(rng_.nextInt(3, 7)),
                                8 * rng_.nextInt(2, 5),
                                rng_.nextInt(1, 3));
    auto ops = flattenGraph(g, deha);

    for (bool memory_mode : {true, false}) {
        SegmenterOptions opt;
        opt.alloc.allowMemoryMode = memory_mode;
        opt.useDp = true;
        Segmenter dp(cost, opt);
        opt.useDp = false;
        Segmenter greedy(cost, opt);
        Cycles a = dp.run(ops).latency.total();
        Cycles b = greedy.run(ops).latency.total();
        EXPECT_LE(a, b) << "memory_mode=" << memory_mode;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpDominance, ::testing::Range(0, 10));

using RangeCacheConsistency = Seeded;

TEST_P(RangeCacheConsistency, CachedAllocationsEqualFreshRecomputes)
{
    // The segmenter's two-level cache (flat-hash range keys over the
    // cross-run signature cache) must be semantically invisible: for
    // any range of any random DAG, the cached allocation equals what a
    // fresh allocator computes from scratch.
    Deha deha(testing::tinyChip(static_cast<s64>(rng_.nextInt(8, 16))));
    CostModel cost(deha);
    SegmenterOptions opt;
    Segmenter segmenter(cost, opt);
    DualModeAllocator fresh(cost, opt.alloc);

    const s64 n = rng_.nextInt(4, 12);
    std::vector<ScheduledOp> ops = randomScheduledOps(rng_, deha.config(), n);
    segmenter.run(ops); // populates the caches along the DP's ranges
    EXPECT_GT(segmenter.cacheMisses(), 0);

    for (int probe = 0; probe < 25; ++probe) {
        s64 lo = rng_.nextInt(0, n - 1);
        s64 hi = rng_.nextInt(lo + 1, n);
        const SegmentAllocation &cached =
            segmenter.allocationForRange(ops, lo, hi);
        // Probe again: the second lookup is a guaranteed range-cache
        // hit and must alias the same allocation.
        s64 hits_before = segmenter.cacheHits();
        const SegmentAllocation &rehit =
            segmenter.allocationForRange(ops, lo, hi);
        EXPECT_EQ(&cached, &rehit);
        EXPECT_GT(segmenter.cacheHits(), hits_before);
        expectSameAllocation(cached,
                             fresh.allocate(makeSegmentView(ops, lo, hi)),
                             lo, hi);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCacheConsistency,
                         ::testing::Range(0, 10));

using RangeKeyPacking = Seeded;

TEST_P(RangeKeyPacking, PackedKeysRoundTripWithoutCollision)
{
    // The per-run range cache packs (lo, hi) as lo * (n + 1) + hi.
    // Round-tripping the key through / and % proves injectivity; the
    // sweep covers n from tiny up to Segmenter::kMaxOps (the packing
    // guard asserted by Segmenter::run).
    const s64 sizes[] = {1, 2, 63, 64, 4096, 1 << 20,
                         Segmenter::kMaxOps};
    for (s64 n : sizes) {
        for (int trial = 0; trial < 50; ++trial) {
            s64 lo = rng_.nextInt(0, n - 1);
            s64 hi = rng_.nextInt(lo + 1, n);
            s64 key = lo * (n + 1) + hi;
            ASSERT_GE(key, 0) << "overflow at n=" << n;
            EXPECT_EQ(key / (n + 1), lo) << "n=" << n;
            EXPECT_EQ(key % (n + 1), hi) << "n=" << n;
        }
    }
    // Small n: exhaustive distinctness over every legal (lo, hi).
    const s64 n = 40;
    std::unordered_set<s64> seen;
    for (s64 lo = 0; lo < n; ++lo) {
        for (s64 hi = lo + 1; hi <= n; ++hi)
            EXPECT_TRUE(seen.insert(lo * (n + 1) + hi).second)
                << "collision at (" << lo << ", " << hi << ")";
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n * (n + 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeKeyPacking, ::testing::Range(0, 4));

using SerializeFuzz = Seeded;

TEST_P(SerializeFuzz, RandomChainsRoundTrip)
{
    Graph g = testing::chainMlp(static_cast<s64>(rng_.nextInt(1, 8)),
                                8 * rng_.nextInt(1, 8),
                                rng_.nextInt(1, 5));
    Graph back = parseGraph(serializeGraph(g));
    EXPECT_EQ(serializeGraph(back), serializeGraph(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzz, ::testing::Range(0, 10));

using PartitionConservation = Seeded;

TEST_P(PartitionConservation, SlicesPreserveTotals)
{
    Deha deha(testing::tinyChip(6));
    PartitionOptions opts;
    opts.maxTilesPerSubOp = static_cast<s64>(rng_.nextInt(1, 4));
    s64 dim = 16 * rng_.nextInt(2, 6);
    Graph g = testing::chainMlp(2, dim, 2);
    auto ops = flattenGraph(g, deha, opts);

    s64 macs = 0, weight_bytes = 0;
    for (const ScheduledOp &s : ops) {
        EXPECT_LE(s.work.weightTiles, opts.maxTilesPerSubOp);
        macs += s.work.macs;
        weight_bytes += s.work.weightBytes;
    }
    // Column splits partition MACs and weights exactly.
    EXPECT_EQ(macs, 2 * 2 * dim * dim);
    EXPECT_EQ(weight_bytes, 2 * dim * dim);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionConservation,
                         ::testing::Range(0, 10));

} // namespace
} // namespace cmswitch
