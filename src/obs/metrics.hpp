/**
 * @file
 * Thread-safe metrics registry: named counters, gauges, and streaming
 * latency quantiles.
 *
 * The estimator is a fixed-log-bucket histogram (HDR-style, not P²):
 * each power-of-two octave is split into kSubBuckets linear sub-buckets,
 * so any reported quantile is the midpoint of a bucket whose relative
 * width is 1/kSubBuckets — a guaranteed relative error bound of
 * 1/(2*kSubBuckets) ≈ 3.2% (see LogHistogram::kMaxRelativeError), which
 * obs_test pins against exact sorted percentiles. Unlike P² the bucket
 * layout is value-independent, so histograms merge exactly (batch jobs,
 * future serve-daemon shards) and record() is a couple of relaxed
 * atomic adds — safe from any thread with no coordination.
 *
 * Hot instruments are enum-indexed (Met/Gau/Hist) into fixed arrays: no
 * name hashing or locking on the compile hot path. String-named
 * instruments exist too (mutex-guarded map) for tests and for callers
 * outside the built-in set.
 *
 * Snapshots (`writeJson`) emit keys in sorted order, so two snapshots
 * of equally-counted registries are byte-identical; only histogram
 * timing fields (sum/min/max/p*) vary run to run.
 */

#ifndef CMSWITCH_OBS_METRICS_HPP
#define CMSWITCH_OBS_METRICS_HPP

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "support/common.hpp"

namespace cmswitch {

class JsonWriter;

namespace obs {

/** Monotonic event counter (relaxed atomic; any thread may add). */
class Counter
{
  public:
    void add(s64 delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
    s64 get() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<s64> value_{0};
};

/** Last-write-wins level (thread count, queue depth, ...). */
class Gauge
{
  public:
    void set(s64 value) { value_.store(value, std::memory_order_relaxed); }
    s64 get() const { return value_.load(std::memory_order_relaxed); }
    void reset() { set(0); }

  private:
    std::atomic<s64> value_{0};
};

/**
 * Streaming quantile estimator over non-negative samples.
 *
 * Layout: kOctaves power-of-two octaves covering [2^kMinExponent,
 * 2^kMaxExponent), each split into kSubBuckets equal-width sub-buckets,
 * plus one underflow bucket (zero and sub-range values) and one
 * overflow bucket. A sample lands in the bucket by frexp: wait-free
 * relaxed fetch_add, plus CAS-maintained exact min/max/sum.
 *
 * quantile(q) returns the midpoint of the bucket holding the
 * nearest-rank sample, clamped to the exact [min, max] observed — so
 * the estimate is within kMaxRelativeError of the true percentile, and
 * p0/p100 are exact.
 */
class LogHistogram
{
  public:
    static constexpr int kSubBuckets = 16;
    static constexpr int kMinExponent = -40; ///< below ~9.1e-13 underflows
    static constexpr int kMaxExponent = 40;  ///< at/above ~1.1e12 overflows
    static constexpr int kOctaves = kMaxExponent - kMinExponent;
    static constexpr int kBuckets = kOctaves * kSubBuckets + 2;

    /** Documented estimator bound: half a sub-bucket's relative width. */
    static constexpr double kMaxRelativeError = 0.5 / kSubBuckets;

    LogHistogram() { reset(); }

    /** @{ Copyable (relaxed-load snapshot): a copy is a consistent-
     *  enough point-in-time view for interval deltas and report
     *  aggregation; it is not a linearizable snapshot under concurrent
     *  record(), which is fine for every current caller (serve status
     *  copies under the engine mutex, the simulator is
     *  single-threaded). */
    LogHistogram(const LogHistogram &other) { copyFrom(other); }
    LogHistogram &
    operator=(const LogHistogram &other)
    {
        if (this != &other)
            copyFrom(other);
        return *this;
    }
    /** @} */

    /** Record one sample; negatives clamp to 0, NaN is dropped. */
    void record(double value);

    s64 count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const;
    double min() const; ///< exact; 0 when empty
    double max() const; ///< exact; 0 when empty

    /** Nearest-rank quantile estimate, @p q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    /** Fold @p other into this histogram (exact: same bucket layout). */
    void merge(const LogHistogram &other);

    /**
     * merge() inverted: subtract @p earlier — a previous snapshot
     * (copy) of *this histogram* — leaving only the samples recorded
     * since. Bucket counts, count and sum subtract exactly (same
     * layout); the interval's min/max are not recoverable from
     * cumulative extremes, so they are re-derived as the bounds of the
     * first/last surviving bucket — within the estimator's documented
     * kMaxRelativeError, and quantile() stays clamped inside them.
     * Calling this with anything but an earlier snapshot of the same
     * histogram gives meaningless (clamped-at-zero) results.
     */
    void subtractSnapshot(const LogHistogram &earlier);

    /** Zero all state. Not atomic w.r.t. concurrent record(). */
    void reset();

    /** count/sum/min/max/p50/p90/p95/p99 as one JSON object. */
    void writeJson(JsonWriter &w) const;

    /** Bucket index a sample maps to (exposed for the unit test). */
    static int bucketIndex(double value);

  private:
    void copyFrom(const LogHistogram &other);

    std::array<std::atomic<s64>, kBuckets> buckets_;
    std::atomic<s64> count_;
    std::atomic<double> sum_;
    std::atomic<double> min_;
    std::atomic<double> max_;
};

/** Built-in counters (enum-indexed: no lookup on the hot path). */
enum class Met : u32 {
    kAllocBisectionIters,
    kAllocProbeShortcuts,
    kAllocProbes,
    kAllocRuns,
    kCompiles,
    kDiskCacheHits,
    kDiskCacheMisses,
    kDiskCacheRejected,
    kDiskCacheStores,
    kDiskCacheTouchFailed,
    kDpBoundaries,
    kDpSigCacheHits,
    kDpSigCacheMisses,
    // Never incremented (read 0); kept so perfbench/layers.cpp still builds.
    kIncrementalDpRowsReused,
    kIncrementalNeighborHits,
    kIncrementalNeighborMisses,
    kIncrementalNeighborPartials,
    kLpSolves,
    kLpWarmHits,
    kLpWarmMisses,
    kMipNodes,
    kMipSolves,
    kPlanCacheEvictions,
    kPlanCacheHits,
    kPlanCacheMisses,
    kServeAdmitted,
    kServeCacheCold,
    kServeCacheDisk,
    kServeCacheMemory,
    kServeCoalesced,
    kServeErrors,
    kServeReceived,
    kServeShedAdmission,
    kServeShedDeadline,
    kCount,
};

/** Built-in gauges (declared in name order: the snapshot's gauge keys
 *  come straight from the enum, not through a sorting map). */
enum class Gau : u32 {
    kServeInflight,
    kServeQueueDepth,
    kSearchThreads,
    kServiceThreads,
    kCount,
};

/** Built-in latency histograms (all record seconds). */
enum class Hist : u32 {
    kPhaseAllocate,
    kPhaseBackend,
    kPhaseCodegen,
    kPhaseCompile,
    kPhaseEnergy,
    kPhasePartition,
    kPhasePasses,
    kPhaseSegment,
    kPhaseValidate,
    kServeExecute,
    kServeQueueWait,
    kServeTotal,
    kServiceExecute,
    kServiceQueueWait,
    kCount,
};

const char *metName(Met m);
const char *gauName(Gau g);
const char *histName(Hist h);

/**
 * The registry: owns every instrument for one observation session.
 * Built-ins live in fixed arrays; string-named extras are created on
 * first use under a mutex and live until the registry dies (returned
 * references stay valid).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(Met m) { return counters_[static_cast<u32>(m)]; }
    Gauge &gauge(Gau g) { return gauges_[static_cast<u32>(g)]; }
    LogHistogram &histogram(Hist h) { return histograms_[static_cast<u32>(h)]; }

    /** @{ Dynamic string-named instruments (mutex on first use). */
    Counter &counter(std::string_view name);
    LogHistogram &histogram(std::string_view name);
    /** @} */

    /** Zero every instrument (built-in and dynamic). */
    void reset();

    /**
     * Snapshot as {"counters": {...}, "gauges": {...}, "quantiles":
     * {...}} with sorted keys. Counter/gauge values and histogram
     * counts are deterministic for a deterministic workload; histogram
     * sum/min/max/p* are the timing fields.
     */
    void writeJson(JsonWriter &w) const;

    /** writeJson() as a standalone document. */
    std::string snapshotJson(int indent = 2) const;

  private:
    std::array<Counter, static_cast<u32>(Met::kCount)> counters_;
    std::array<Gauge, static_cast<u32>(Gau::kCount)> gauges_;
    std::array<LogHistogram, static_cast<u32>(Hist::kCount)> histograms_;

    mutable std::mutex dynamicMutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> dynamicCounters_;
    std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>> dynamicHistograms_;
};

} // namespace obs
} // namespace cmswitch

#endif // CMSWITCH_OBS_METRICS_HPP
