#include "obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <map>

#include "support/json.hpp"
#include "support/logging.hpp"

namespace cmswitch {
namespace obs {

namespace {

/** CAS-accumulate: keeps atomic<double> portable pre-fetch_add. */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMin(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

int
LogHistogram::bucketIndex(double value)
{
    // Bucket 0 holds zero and anything below the covered range; the
    // last bucket holds anything at/above it. In between, frexp gives
    // value = f * 2^e with f in [0.5, 1), and (2f - 1) in [0, 1)
    // selects one of kSubBuckets equal-width sub-buckets of the octave.
    if (!(value > 0.0)) // also catches NaN (record() drops it earlier)
        return 0;
    int exponent = 0;
    double fraction = std::frexp(value, &exponent);
    if (exponent <= kMinExponent)
        return 0;
    if (exponent > kMaxExponent)
        return kBuckets - 1;
    int sub = static_cast<int>((2.0 * fraction - 1.0) * kSubBuckets);
    if (sub >= kSubBuckets) // guard the f -> 1.0 rounding edge
        sub = kSubBuckets - 1;
    return 1 + (exponent - kMinExponent - 1) * kSubBuckets + sub;
}

/** Midpoint of bucket @p index; inverse of bucketIndex for estimates. */
static double
bucketMidpoint(int index)
{
    if (index <= 0)
        return 0.0;
    if (index >= LogHistogram::kBuckets - 1)
        return std::ldexp(1.0, LogHistogram::kMaxExponent);
    int flat = index - 1;
    int octave = flat / LogHistogram::kSubBuckets;
    int sub = flat % LogHistogram::kSubBuckets;
    int exponent = LogHistogram::kMinExponent + 1 + octave;
    double fraction =
        0.5 * (1.0 + (sub + 0.5) / LogHistogram::kSubBuckets);
    return std::ldexp(fraction, exponent);
}

/** @{ Value range of bucket @p index: [lower, upper). The underflow
 *  bucket starts at 0; the overflow bucket is collapsed onto its lower
 *  edge (same convention as bucketMidpoint). */
static double
bucketLowerEdge(int index)
{
    if (index <= 0)
        return 0.0;
    if (index >= LogHistogram::kBuckets - 1)
        return std::ldexp(1.0, LogHistogram::kMaxExponent);
    int flat = index - 1;
    int octave = flat / LogHistogram::kSubBuckets;
    int sub = flat % LogHistogram::kSubBuckets;
    int exponent = LogHistogram::kMinExponent + 1 + octave;
    double fraction =
        0.5 * (1.0 + static_cast<double>(sub) / LogHistogram::kSubBuckets);
    return std::ldexp(fraction, exponent);
}

static double
bucketUpperEdge(int index)
{
    if (index <= 0)
        return std::ldexp(1.0, LogHistogram::kMinExponent);
    if (index >= LogHistogram::kBuckets - 1)
        return std::ldexp(1.0, LogHistogram::kMaxExponent);
    return bucketLowerEdge(index + 1);
}
/** @} */

void
LogHistogram::copyFrom(const LogHistogram &other)
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[static_cast<std::size_t>(i)].store(
            other.buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed),
            std::memory_order_relaxed);
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    min_.store(other.min_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    max_.store(other.max_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

void
LogHistogram::subtractSnapshot(const LogHistogram &earlier)
{
    s64 remaining = 0;
    int first = -1;
    int last = -1;
    for (int i = 0; i < kBuckets; ++i) {
        std::size_t b = static_cast<std::size_t>(i);
        s64 left = buckets_[b].load(std::memory_order_relaxed)
                   - earlier.buckets_[b].load(std::memory_order_relaxed);
        if (left < 0) // not actually an earlier snapshot; clamp
            left = 0;
        buckets_[b].store(left, std::memory_order_relaxed);
        if (left > 0) {
            remaining += left;
            if (first < 0)
                first = i;
            last = i;
        }
    }
    count_.store(remaining, std::memory_order_relaxed);
    if (remaining == 0) {
        sum_.store(0.0, std::memory_order_relaxed);
        min_.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
        max_.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
        return;
    }
    double sumLeft = sum_.load(std::memory_order_relaxed)
                     - earlier.sum_.load(std::memory_order_relaxed);
    if (sumLeft < 0.0) // float round-off across the subtraction
        sumLeft = 0.0;
    sum_.store(sumLeft, std::memory_order_relaxed);
    // Cumulative min/max do not localize to the interval; bucket
    // bounds of the surviving samples are the tightest safe envelope.
    min_.store(bucketLowerEdge(first), std::memory_order_relaxed);
    max_.store(bucketUpperEdge(last), std::memory_order_relaxed);
}

void
LogHistogram::record(double value)
{
    if (std::isnan(value))
        return;
    if (value < 0.0)
        value = 0.0;
    buckets_[static_cast<std::size_t>(bucketIndex(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, value);
    atomicMin(min_, value);
    atomicMax(max_, value);
}

void
LogHistogram::recordSingleWriter(double value)
{
    if (std::isnan(value))
        return;
    if (value < 0.0)
        value = 0.0;
    std::atomic<s64> &bucket =
        buckets_[static_cast<std::size_t>(bucketIndex(value))];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + value,
               std::memory_order_relaxed);
    if (value < min_.load(std::memory_order_relaxed))
        min_.store(value, std::memory_order_relaxed);
    if (value > max_.load(std::memory_order_relaxed))
        max_.store(value, std::memory_order_relaxed);
}

double
LogHistogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
LogHistogram::min() const
{
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double
LogHistogram::max() const
{
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double
LogHistogram::quantile(double q) const
{
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    s64 total = 0;
    std::array<s64, kBuckets> snapshot;
    for (int i = 0; i < kBuckets; ++i) {
        snapshot[static_cast<std::size_t>(i)] =
            buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed);
        total += snapshot[static_cast<std::size_t>(i)];
    }
    if (total == 0)
        return 0.0;
    // Nearest-rank: the smallest bucket whose cumulative count covers
    // rank ceil(q * total), clamped to the exact observed range so the
    // bucket-midpoint estimate never leaves [min, max].
    s64 rank = static_cast<s64>(std::ceil(q * static_cast<double>(total)));
    if (rank < 1)
        rank = 1;
    s64 cumulative = 0;
    for (int i = 0; i < kBuckets; ++i) {
        cumulative += snapshot[static_cast<std::size_t>(i)];
        if (cumulative >= rank) {
            // The underflow/overflow buckets have no meaningful
            // midpoint; report the exact observed extreme instead.
            if (i == 0)
                return min();
            if (i == kBuckets - 1)
                return max();
            double estimate = bucketMidpoint(i);
            double lo = min();
            double hi = max();
            return estimate < lo ? lo : (estimate > hi ? hi : estimate);
        }
    }
    return max();
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[static_cast<std::size_t>(i)].fetch_add(
            other.buckets_[static_cast<std::size_t>(i)].load(
                std::memory_order_relaxed),
            std::memory_order_relaxed);
    s64 otherCount = other.count();
    if (otherCount == 0)
        return;
    count_.fetch_add(otherCount, std::memory_order_relaxed);
    atomicAdd(sum_, other.sum_.load(std::memory_order_relaxed));
    atomicMin(min_, other.min_.load(std::memory_order_relaxed));
    atomicMax(max_, other.max_.load(std::memory_order_relaxed));
}

void
LogHistogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

void
LogHistogram::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("count", count());
    w.field("sum", sum());
    w.field("min", min());
    w.field("max", max());
    w.field("p50", quantile(0.50));
    w.field("p90", quantile(0.90));
    w.field("p95", quantile(0.95));
    w.field("p99", quantile(0.99));
    w.endObject();
}

const char *
metName(Met m)
{
    switch (m) {
    case Met::kAllocBisectionIters: return "alloc.bisection_iters";
    case Met::kAllocProbeShortcuts: return "alloc.probe_shortcuts";
    case Met::kAllocProbes: return "alloc.probes";
    case Met::kAllocRuns: return "alloc.runs";
    case Met::kCompiles: return "compile.compiles";
    case Met::kDiskCacheHits: return "disk_cache.hits";
    case Met::kDiskCacheMisses: return "disk_cache.misses";
    case Met::kDiskCacheRejected: return "disk_cache.rejected";
    case Met::kDiskCacheStores: return "disk_cache.stores";
    case Met::kDiskCacheTouchFailed: return "disk_cache.touch_failed";
    case Met::kDpBoundaries: return "dp.boundaries";
    case Met::kDpSigCacheHits: return "dp.sig_cache_hits";
    case Met::kDpSigCacheMisses: return "dp.sig_cache_misses";
    case Met::kIncrementalDpRowsReused:
        return "incremental.dp_rows_reused";
    case Met::kIncrementalNeighborHits:
        return "incremental.neighbor_hits";
    case Met::kIncrementalNeighborMisses:
        return "incremental.neighbor_misses";
    case Met::kIncrementalNeighborPartials:
        return "incremental.neighbor_partials";
    case Met::kLpSolves: return "lp.solves";
    case Met::kLpWarmHits: return "lp.warm_hits";
    case Met::kLpWarmMisses: return "lp.warm_misses";
    case Met::kMipNodes: return "mip.nodes";
    case Met::kMipSolves: return "mip.solves";
    case Met::kPlanCacheEvictions: return "plan_cache.evictions";
    case Met::kPlanCacheHits: return "plan_cache.hits";
    case Met::kPlanCacheMisses: return "plan_cache.misses";
    case Met::kServeAdmitted: return "serve.admitted";
    case Met::kServeCacheCold: return "serve.cache_cold";
    case Met::kServeCacheDisk: return "serve.cache_disk";
    case Met::kServeCacheMemory: return "serve.cache_memory";
    case Met::kServeCoalesced: return "serve.coalesced";
    case Met::kServeErrors: return "serve.errors";
    case Met::kServeReceived: return "serve.received";
    case Met::kServeShedAdmission: return "serve.shed_admission";
    case Met::kServeShedDeadline: return "serve.shed_deadline";
    case Met::kCount: break;
    }
    cmswitch_panic("metName: bad counter id ", static_cast<u32>(m));
}

const char *
gauName(Gau g)
{
    switch (g) {
    case Gau::kServeInflight: return "serve.inflight";
    case Gau::kServeQueueDepth: return "serve.queue_depth";
    case Gau::kServiceThreads: return "service.threads";
    case Gau::kCount: break;
    }
    cmswitch_panic("gauName: bad gauge id ", static_cast<u32>(g));
}

const char *
histName(Hist h)
{
    switch (h) {
    case Hist::kPhaseAllocate: return "phase.allocate_seconds";
    case Hist::kPhaseBackend: return "phase.backend_seconds";
    case Hist::kPhaseCodegen: return "phase.codegen_seconds";
    case Hist::kPhaseCompile: return "phase.compile_seconds";
    case Hist::kPhaseEnergy: return "phase.energy_seconds";
    case Hist::kPhasePartition: return "phase.partition_seconds";
    case Hist::kPhasePasses: return "phase.frontend_passes_seconds";
    case Hist::kPhaseSegment: return "phase.segment_seconds";
    case Hist::kPhaseValidate: return "phase.validate_seconds";
    case Hist::kServeExecute: return "serve.execute_seconds";
    case Hist::kServeQueueWait: return "serve.queue_wait_seconds";
    case Hist::kServeTotal: return "serve.total_seconds";
    case Hist::kServiceExecute: return "service.execute_seconds";
    case Hist::kServiceQueueWait: return "service.queue_wait_seconds";
    case Hist::kCount: break;
    }
    cmswitch_panic("histName: bad histogram id ", static_cast<u32>(h));
}

void
MetricsRegistry::reset()
{
    for (auto &c : counters_)
        c.reset();
    for (auto &g : gauges_)
        g.reset();
    for (auto &h : histograms_)
        h.reset();
}

void
MetricsRegistry::writeJson(JsonWriter &w) const
{
    // The name tables are already sorted (the enums are declared in
    // name order), but merging through std::map keeps the sorted-key
    // guarantee independent of enum declaration order.
    std::map<std::string, s64, std::less<>> counters;
    for (u32 i = 0; i < static_cast<u32>(Met::kCount); ++i)
        counters[metName(static_cast<Met>(i))] = counters_[i].get();
    std::map<std::string, const LogHistogram *, std::less<>> histograms;
    for (u32 i = 0; i < static_cast<u32>(Hist::kCount); ++i)
        histograms[histName(static_cast<Hist>(i))] = &histograms_[i];

    w.beginObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.field(name, value);
    w.endObject();
    w.key("gauges").beginObject();
    for (u32 i = 0; i < static_cast<u32>(Gau::kCount); ++i)
        w.field(gauName(static_cast<Gau>(i)), gauges_[i].get());
    w.endObject();
    w.key("quantiles").beginObject();
    for (const auto &[name, hist] : histograms) {
        w.key(name);
        hist->writeJson(w);
    }
    w.endObject();
    w.endObject();
}

std::string
MetricsRegistry::snapshotJson(int indent) const
{
    JsonWriter w(indent);
    writeJson(w);
    return w.str();
}

} // namespace obs
} // namespace cmswitch
