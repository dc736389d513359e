#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "support/json.hpp"
#include "support/logging.hpp"

namespace cmswitch::bench {

MemorySample
sampleMemory()
{
    MemorySample sample;
#ifdef __linux__
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        s64 *field = nullptr;
        if (line.rfind("VmRSS:", 0) == 0)
            field = &sample.rssKb;
        else if (line.rfind("VmHWM:", 0) == 0)
            field = &sample.peakRssKb;
        if (field != nullptr) {
            std::istringstream fields(line.substr(line.find(':') + 1));
            s64 value = -1;
            if (fields >> value)
                *field = value; // /proc reports kB
        }
    }
#endif
    return sample;
}

Harness::Harness() : Harness(Options{})
{
}

Harness::Harness(Options options) : options_(options)
{
    cmswitch_assert(options_.repeats >= 1, "need at least one repeat");
    cmswitch_assert(options_.warmups >= 0, "negative warmup count");
    cmswitch_assert(options_.trimFraction >= 0.0
                        && options_.trimFraction < 0.5,
                    "trim fraction must be in [0, 0.5)");
}

TimingStats
Harness::time(const std::function<void()> &fn) const
{
    for (int i = 0; i < options_.warmups; ++i)
        fn();

    TimingStats stats;
    stats.samples.reserve(static_cast<std::size_t>(options_.repeats));
    for (int i = 0; i < options_.repeats; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        stats.samples.push_back(
            std::chrono::duration<double>(t1 - t0).count());
    }

    std::vector<double> sorted = stats.samples;
    std::sort(sorted.begin(), sorted.end());
    stats.min = sorted.front();
    stats.max = sorted.back();
    double sum = 0.0;
    for (double s : sorted)
        sum += s;
    stats.mean = sum / static_cast<double>(sorted.size());

    auto trim = static_cast<std::size_t>(
        std::floor(options_.trimFraction
                   * static_cast<double>(sorted.size())));
    double trimmed_sum = 0.0;
    std::size_t kept = sorted.size() - 2 * trim;
    for (std::size_t i = trim; i < sorted.size() - trim; ++i)
        trimmed_sum += sorted[i];
    stats.trimmedMean = trimmed_sum / static_cast<double>(kept);
    return stats;
}

BenchReport::BenchReport(std::string benchName,
                         const Harness::Options &options)
    : benchName_(std::move(benchName)), options_(options)
{
}

void
BenchReport::setConfig(const std::string &key, const std::string &value)
{
    config_.emplace_back(key, value);
}

void
BenchReport::add(BenchRecord record)
{
    records_.push_back(std::move(record));
}

void
BenchReport::setSummary(std::string key, double value)
{
    summary_.emplace_back(std::move(key), value);
}

std::string
BenchReport::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("schema", "cmswitch-bench-v1");
    w.field("bench", benchName_);

    w.key("config").beginObject();
    w.field("warmups", static_cast<s64>(options_.warmups));
    w.field("repeats", static_cast<s64>(options_.repeats));
    w.field("trim_fraction", options_.trimFraction);
    for (const auto &[key, value] : config_)
        w.field(key, value);
    w.endObject();

    // Sampling failures (non-Linux, or a truncated /proc read) leave
    // the -1 sentinels; omit those fields rather than publish a bogus
    // negative size — consumers (tests/bench_gate.cmake) treat an
    // absent field as "not measured" and skip it.
    MemorySample mem = sampleMemory();
    w.key("memory").beginObject();
    if (mem.rssKb >= 0)
        w.field("rss_kb", mem.rssKb);
    if (mem.peakRssKb >= 0)
        w.field("peak_rss_kb", mem.peakRssKb);
    w.endObject();

    w.key("workloads").beginArray();
    for (const BenchRecord &record : records_) {
        w.beginObject();
        w.field("name", record.name);
        w.key("metrics").beginObject();
        for (const auto &[key, value] : record.metrics)
            w.field(key, value);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("summary").beginObject();
    for (const auto &[key, value] : summary_)
        w.field(key, value);
    w.endObject();

    w.endObject();
    return w.str();
}

void
BenchReport::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    cmswitch_fatal_if(!out, "cannot open bench report file ", path);
    out << toJson() << "\n";
    out.flush();
    cmswitch_fatal_if(!out, "failed writing bench report ", path);
}

double
geomean(const std::vector<double> &values)
{
    cmswitch_assert(!values.empty(), "geomean of nothing");
    double log_sum = 0.0;
    for (double v : values) {
        cmswitch_assert(v > 0.0, "geomean needs positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace cmswitch::bench
