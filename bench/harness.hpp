/**
 * @file
 * Reusable compile-time measurement harness for the bench drivers.
 *
 * The paper-figure drivers print human tables; CI needs machine-
 * readable numbers with enough statistical hygiene to gate on. The
 * harness provides both halves:
 *
 *  - bench::Harness — steady-clock timing with warmup iterations and a
 *    trimmed-mean over repeats, so one scheduler hiccup cannot fail the
 *    perf gate;
 *  - bench::sampleMemory — peak/current RSS from /proc/self/status
 *    (-1 where unavailable; reports omit unmeasured fields instead of
 *    publishing the sentinel), so memory regressions show up in the
 *    trajectory too;
 *  - bench::BenchReport — the versioned `cmswitch-bench-v1` JSON
 *    report (schema documented in README.md) written via the
 *    deterministic JsonWriter, consumed by tests/bench_gate.cmake and
 *    uploaded by CI as BENCH_compile_time.json.
 */

#ifndef CMSWITCH_BENCH_HARNESS_HPP
#define CMSWITCH_BENCH_HARNESS_HPP

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "support/common.hpp"

namespace cmswitch::bench {

/** Process memory usage in KiB; -1 where the platform can't say. */
struct MemorySample
{
    s64 rssKb = -1;     ///< current resident set (VmRSS)
    s64 peakRssKb = -1; ///< high-water mark (VmHWM)
};

/** Read /proc/self/status (Linux); fields stay -1 elsewhere. */
MemorySample sampleMemory();

/** Timing statistics of one benchmarked function. */
struct TimingStats
{
    std::vector<double> samples; ///< seconds, in run order
    double trimmedMean = 0.0;    ///< mean after trimming both tails
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Warmup + repeat + trimmed-mean steady-clock timer. */
class Harness
{
  public:
    struct Options
    {
        int warmups = 1; ///< untimed runs before sampling
        int repeats = 5; ///< timed samples
        /** Fraction of samples dropped from *each* tail before the
         *  mean (0.2 with 5 repeats drops the best and worst run). */
        double trimFraction = 0.2;
    };

    Harness(); ///< all-default options
    explicit Harness(Options options);

    /** Run @p fn warmups + repeats times; time the repeats. */
    TimingStats time(const std::function<void()> &fn) const;

    const Options &options() const { return options_; }

  private:
    Options options_;
};

/** One benchmark row of a cmswitch-bench-v1 report. */
struct BenchRecord
{
    std::string name;
    /** Metric key/value pairs, emitted in insertion order. */
    std::vector<std::pair<std::string, double>> metrics;

    BenchRecord &
    metric(std::string key, double value)
    {
        metrics.emplace_back(std::move(key), value);
        return *this;
    }
};

/**
 * Builder for the versioned machine-readable report. Keys are emitted
 * in insertion order so reports diff cleanly run-over-run.
 */
class BenchReport
{
  public:
    BenchReport(std::string benchName, const Harness::Options &options);

    /** Free-form configuration note (e.g. "full" vs trimmed sweep). */
    void setConfig(const std::string &key, const std::string &value);

    void add(BenchRecord record);

    /** Cross-workload aggregate (geomeans etc.). */
    void setSummary(std::string key, double value);

    /** The serialized cmswitch-bench-v1 document. */
    std::string toJson() const;

    /** Write toJson() to @p path (fatal on I/O failure). */
    void write(const std::string &path) const;

  private:
    std::string benchName_;
    Harness::Options options_;
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<BenchRecord> records_;
    std::vector<std::pair<std::string, double>> summary_;
};

/** Geometric mean of @p values (which must all be > 0). */
double geomean(const std::vector<double> &values);

} // namespace cmswitch::bench

#endif // CMSWITCH_BENCH_HARNESS_HPP
