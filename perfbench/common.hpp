/**
 * @file
 * Shared pieces of the benchmark runner: the seeded input generator,
 * clocks and order statistics, the run's options, and the Outcome every
 * workload fills (attempt/failure accounting plus named metrics).
 *
 * The runner talks to cmswitch only through its public entry points;
 * nothing here reaches into src/ internals.
 */

#ifndef CMSWITCH_PERFBENCH_COMMON_HPP
#define CMSWITCH_PERFBENCH_COMMON_HPP

#include <chrono>
#include <string>
#include <vector>

#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "support/common.hpp"

namespace perfbench {

using cmswitch::s64;
using cmswitch::u64;

/**
 * SplitMix64 with hand-mapped draws: the benchmark's inputs must not
 * change when the library's own RNG (std:: distributions, whose output
 * is implementation-defined) does.
 */
class Rng
{
  public:
    explicit Rng(u64 seed) : state_(seed) {}

    u64 next();
    double uniform();                    ///< [0, 1)
    s64 range(s64 lo, s64 hi);           ///< [lo, hi] inclusive
    double exponential(double rate);     ///< mean 1/rate

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (std::size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1],
                      items[static_cast<std::size_t>(
                          range(0, static_cast<s64>(i) - 1))]);
    }

  private:
    u64 state_;
};

/** Seconds on the steady clock since the first call in the process. */
double now();

/** Sleep until now() reaches @p seconds (no-op if already past). */
void sleepUntil(double seconds);

/** @{ Order statistics over samples (nearest rank; 0 when empty). */
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double geomean(const std::vector<double> &values);
/** @} */

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMb();

/** Total bytes of regular files under @p dir whose name ends in
 *  @p suffix ("" = all), and how many there were. */
s64 dirBytes(const std::string &dir, const std::string &suffix,
             s64 *files = nullptr);

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;  ///< traced-run artifacts (trace + layers JSON)
    std::string workDir; ///< working space (cache dirs), removed after
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    s64 samples = 0;     ///< sample count behind the value (0 = n/a)
    std::string meaning; ///< the workload's own name for the quantity
};

/** What one workload run reports. */
struct Outcome
{
    s64 attempted = 0;
    s64 failed = 0;
    std::vector<std::string> problems; ///< first few failure messages
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    std::vector<Metric> info; ///< printed for people, not in the JSON

    /** Count one failed check (attempted is counted by the caller). */
    void fail(const std::string &message);

    void addEndToEnd(std::string name, double value, std::string unit,
                     s64 samples, std::string meaning);
    void addLayer(std::string name, double value, std::string unit,
                  s64 samples = 0);
    void addInfo(std::string name, double value, std::string unit,
                 s64 samples = 0);
};

/** One request of the serve vocabulary, rendered to its wire line. */
struct Line
{
    std::string model;
    std::string chip = "dynaplasia";
    s64 seq = 0;    ///< prefill sequence length; 0 = protocol default
    s64 decode = 0; ///< decode KV length; 0 = prefill / CNN
    s64 layers = 0; ///< transformer depth override; 0 = full depth
    bool optimize = false;

    std::string render(const std::string &id) const;
    /** Workload label for per-model grouping ("opt-6.7b:decode"). */
    std::string family() const;
};

/** Parse + resolve @p line through the serve protocol's public calls,
 *  stamping the service's search width as the engine does, so
 *  requestKey() of the result equals the key the daemon reports. */
bool resolveLine(const std::string &line, cmswitch::CompileRequest *out,
                 std::string *error);

/** Create @p dir fresh (removing any previous contents). */
void freshDir(const std::string &dir);
void removeDir(const std::string &dir);

/** Flush dirty pages to disk, so write-back of set-up output (or of a
 *  previous run) does not land inside a measured phase. */
void flushWrites();

} // namespace perfbench

#endif // CMSWITCH_PERFBENCH_COMMON_HPP
