/**
 * @file
 * The two daemon workloads, both driven through Session (an in-process
 * ServeEngine + runServeSession over a socketpair, maxInflight 2).
 *
 * serve_hot — open loop. Poisson arrivals at a fixed ladder of offered
 * rates, Zipf draws over a 36-plan working set (tiny-mlp up to a
 * full-depth llama2-7b decode step, both chips) that setup pre-compiles
 * into a fresh cache dir. The engine's plan cache holds fewer plans
 * than the set, so every response is a memory hit, a disk hit or a
 * coalesced rider: the read path of a warm daemon, where no compile
 * runs. Latency runs from each request's due time to its response.
 *
 * serve_kv_sweep — closed loop, 2 clients on one connection. Each
 * client owns three (model, chip) decode families and steps their KV
 * lengths up by a seeded stride, waiting for each reply; every request
 * is a new key, served cold first and from a neighbor after, each
 * storing a plan and a .warm sidecar in a fresh cache dir: the write
 * path and the incremental-compilation mechanism compile_cold bypasses.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "layers.hpp"
#include "service/disk_plan_cache.hpp"
#include "session.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cmswitch::ArtifactPtr;

/** One request line of the run, and what its response must say. */
struct Planned
{
    std::string line;
    std::string key;
    std::size_t plan = 0; ///< working-set / sequence index
};

/** Per-response checks shared by both workloads; returns whether the
 *  exchange is an ok response that may enter latency statistics. */
bool
checkExchange(const Exchange &x, const Planned &p,
              std::initializer_list<const char *> outcomes, Outcome *out)
{
    if (x.responses != 1) {
        out->fail(cmswitch::concat(x.responses, " responses to ", p.line));
        return false;
    }
    if (x.status != "ok") {
        out->fail("status " + x.status + " " + x.error + " for " + p.line);
        return false;
    }
    if (x.key != p.key) {
        out->fail("key mismatch for " + p.line);
        return false;
    }
    bool expected = false;
    for (const char *o : outcomes)
        expected = expected || x.cache == o;
    if (!expected) {
        out->fail("cache outcome " + x.cache + " for " + p.line);
        return false;
    }
    return true;
}

/** The serve-path layer metrics from a phase's ok exchanges. */
void
serveLayers(const std::vector<Exchange> &ok, s64 attempted, s64 shed,
            LayerReport *report)
{
    std::vector<double> queue, overhead;
    std::map<std::string, std::vector<double>> execute;
    s64 coalesced = 0;
    for (const Exchange &x : ok) {
        queue.push_back(x.queueWait * 1e3);
        if (x.coalesced) {
            ++coalesced;
            continue; // a rider's timings are its group leader's
        }
        execute[x.cache].push_back(x.execute * 1e3);
        overhead.push_back((x.received - x.sent - x.queueWait - x.execute)
                           * 1e3);
    }
    auto n = static_cast<s64>(ok.size());
    report->set("serve.queue_wait_p50_ms", median(queue), n);
    report->set("serve.queue_wait_p99_ms", quantile(queue, 0.99), n);
    for (const char *outcome : {"memory", "disk", "neighbor", "cold"}) {
        const std::vector<double> &v = execute[outcome];
        report->set(std::string("serve.execute_") + outcome + "_p50_ms",
                    median(v), static_cast<s64>(v.size()));
    }
    report->set("serve.overhead_p50_ms", median(overhead),
                static_cast<s64>(overhead.size()));
    report->set("serve.coalesced_ratio",
                ratio(static_cast<double>(coalesced),
                      static_cast<double>(n)),
                n);
    report->set("serve.shed_ratio",
                ratio(static_cast<double>(shed),
                      static_cast<double>(attempted)),
                attempted);
}

/** Each line the client could not match to a sent id (unparseable, or
 *  an unknown id) is one failure; the blank line after every response
 *  is skipped by the session and not counted. */
void
checkStrays(const Session &session, Outcome *out)
{
    for (s64 i = 0; i < session.strayLines(); ++i)
        out->fail("response line that matches no request id");
}

cmswitch::ServeEngineOptions
engineOptions(const std::string &cacheDir, s64 cacheCapacity)
{
    cmswitch::ServeEngineOptions options;
    options.maxInflight = 2;
    options.maxQueue = 4096; // no admission shedding: backlog shows as wait
    options.service.cacheCapacity = cacheCapacity;
    options.service.searchThreads = 1;
    options.service.cacheDir = cacheDir;
    return options;
}

// ---------------------------------------------------------------- hot

/** The ladder of offered rates (requests/s), lowest first. Every rung
 *  gets the same number of requests. Latency is reported at the
 *  reference rung, about a quarter of capacity on 4 cores: higher rungs
 *  already queue behind the heavy plans, and their p50 swings with
 *  every burst. The rungs above bracket the knee that sets slo_rps. */
constexpr double kLadder[] = {1000.0, 2000.0, 3000.0, 4000.0, 5000.0,
                              6000.0};
constexpr std::size_t kReferenceRung = 0;
/** The ladder is walked this many times; a rung's p50/p99 is the median
 *  over its windows, so a few seconds of host noise (timer wake-ups on a
 *  shared VM) spoil one window rather than the rung. */
constexpr int kPasses = 5;
/** The SLO on a rung's p99 latency: above the few-ms wake-up floor of a
 *  shared VM, below the overload knee. */
constexpr double kSloP99Ms = 50.0;
/** Generator lag (send - due) p99 on the reference rung past which the
 *  offered rate was not really offered and the run is invalid. */
constexpr double kMaxGeneratorLagMs = 20.0;
constexpr double kWarmupSeconds = 1.0;
constexpr s64 kHotCacheCapacity = 12;
constexpr double kZipfExponent = 1.0;

struct WorkingPlan
{
    Line line;
    int tier = 0;
};

/**
 * The working set: per chip, five tiers of similar cost — tiny-mlp and
 * layers-2 prefills, CNNs, layers-2 decode steps, full-depth BERT
 * prefills, and a full-depth llama2-7b decode step (643 ops). The two
 * decode steps carry ~3% of the traffic, so p99 falls inside their
 * class rather than on its edge. The set is fixed; the seed drives the
 * arrivals and the Zipf draws, so p99 does not hinge on which plan a
 * seed happens to make popular.
 */
std::vector<WorkingPlan>
workingSet()
{
    std::vector<WorkingPlan> set;
    for (const char *chip : {"dynaplasia", "prime"}) {
        set.push_back({Line{"tiny-mlp", chip}, 0});
        set.push_back({Line{"gpt", chip, 64, 0, 2}, 0});
        set.push_back({Line{"opt-6.7b", chip, 128, 0, 2}, 0});
        set.push_back({Line{"llama2-7b", chip, 64, 0, 2}, 0});
        set.push_back({Line{"opt-13b", chip, 128, 0, 2}, 0});
        set.push_back({Line{"bert-base", chip, 64, 0, 2}, 0});
        for (const char *m : {"resnet18", "resnet50", "vgg16",
                              "mobilenetv2"})
            set.push_back({Line{m, chip}, 1});
        Line optimized{"resnet18", chip};
        optimized.optimize = true;
        set.push_back({optimized, 1});
        set.push_back({Line{"gpt", chip, 0, 384, 2}, 2});
        set.push_back({Line{"opt-6.7b", chip, 0, 512, 2}, 2});
        set.push_back({Line{"llama2-7b", chip, 0, 640, 2}, 2});
        set.push_back({Line{"opt-13b", chip, 0, 256, 2}, 2});
        set.push_back({Line{"bert-base", chip, 128}, 3});
        set.push_back({Line{"bert-large", chip, 64}, 3});
        set.push_back({Line{"llama2-7b", chip, 0, 512}, 4});
    }
    return set;
}

/**
 * Zipf rank -> plan: ranks go to tiers in a proportional interleave
 * (smooth weighted round robin), so every popularity band holds a mix
 * of graph sizes.
 */
std::vector<std::size_t>
rankOrder(const std::vector<WorkingPlan> &set)
{
    std::map<int, std::vector<std::size_t>> tiers;
    for (std::size_t i = 0; i < set.size(); ++i)
        tiers[set[i].tier].push_back(i);
    std::map<int, double> credit;
    std::map<int, std::size_t> taken;
    std::vector<std::size_t> order;
    while (order.size() < set.size()) {
        int best = -1;
        for (auto &[tier, members] : tiers) {
            if (taken[tier] == members.size())
                continue;
            credit[tier] += static_cast<double>(members.size());
            if (best < 0 || credit[tier] > credit[best])
                best = tier;
        }
        credit[best] -= static_cast<double>(set.size());
        order.push_back(tiers[best][taken[best]++]);
    }
    return order;
}

/** A stretch of the schedule at one offered rate. */
struct Window
{
    std::size_t rung = 0;  ///< index into kLadder; its size: the warm-up
    std::size_t first = 0; ///< request indices [first, last)
    std::size_t last = 0;
};

/** Append a Poisson window at @p rate lasting @p seconds (due times
 *  relative to the window's start), plans drawn from the Zipf @p cdf. */
Window
scheduleWindow(std::size_t rung, double rate, double seconds,
               const std::vector<double> &cdf,
               const std::vector<std::size_t> &byRank, Rng &rng,
               std::vector<double> *due, std::vector<std::size_t> *plans)
{
    Window w{rung, due->size(), due->size()};
    for (double t = rng.exponential(rate); t < seconds;
         t += rng.exponential(rate)) {
        auto rank = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), rng.uniform())
            - cdf.begin());
        due->push_back(t);
        plans->push_back(byRank[std::min(rank, byRank.size() - 1)]);
    }
    w.last = due->size();
    return w;
}

struct HotSetup
{
    std::vector<std::string> keys;
    std::vector<ArtifactPtr> artifacts;
};

/** Pre-compile the working set into a fresh @p cacheDir as plan files
 *  (no .warm sidecars: every serve_hot request is a cache hit). The
 *  artifacts stay in memory only when @p keepArtifacts (the traced run
 *  renders them), so they do not inflate the measured run's RSS. */
bool
precompile(const std::vector<WorkingPlan> &set, const std::string &cacheDir,
           bool keepArtifacts, HotSetup *setup, Outcome *out)
{
    freshDir(cacheDir);
    setup->keys.clear();
    setup->artifacts.clear();
    cmswitch::DiskPlanCache disk(cacheDir);
    for (const WorkingPlan &plan : set) {
        cmswitch::CompileRequest request;
        std::string error;
        std::string line = plan.line.render("w");
        if (!resolveLine(line, &request, &error)) {
            out->fail("resolve " + line + ": " + error);
            return false;
        }
        std::string key = cmswitch::requestKey(request);
        ArtifactPtr artifact = cmswitch::compileArtifact(request, key);
        if (artifact == nullptr || !artifact->validation.ok()) {
            out->fail("working-set compile failed for " + line);
            return false;
        }
        disk.store(key, artifact);
        setup->keys.push_back(std::move(key));
        if (keepArtifacts)
            setup->artifacts.push_back(std::move(artifact));
    }
    return true;
}

/** Drive @p windows open loop through a fresh session (its plan cache
 *  empty, the disk cache warm); returns the exchanges. */
std::vector<Exchange>
runOpenLoop(const std::string &cacheDir, const std::vector<Planned> &planned,
            const std::vector<double> &due,
            const std::vector<Window> &windows, Outcome *out)
{
    flushWrites();
    Session session(engineOptions(cacheDir, kHotCacheCapacity),
                    planned.size());
    for (const Window &w : windows) {
        double start = now() + 0.01;
        for (std::size_t i = w.first; i < w.last; ++i) {
            sleepUntil(start + due[i]);
            session.send(i, start + due[i], planned[i].line);
        }
        session.waitRange(w.first, w.last, 60.0);
    }
    session.close();
    checkStrays(session, out);
    std::vector<Exchange> exchanges;
    for (std::size_t i = 0; i < planned.size(); ++i)
        exchanges.push_back(session.exchange(i));
    return exchanges;
}

struct LatencyStats
{
    double p50 = 0.0, p99 = 0.0, mean = 0.0;
    s64 n = 0;
    bool backlog = false;
};

/** Due-to-response latency over one window's ok exchanges. */
LatencyStats
windowStats(const Window &w, const std::vector<Exchange> &x,
            const std::vector<bool> &ok)
{
    std::vector<double> ms;
    double lastDue = 0.0, lastReceived = 0.0, sum = 0.0;
    for (std::size_t i = w.first; i < w.last; ++i) {
        lastDue = std::max(lastDue, x[i].due);
        if (!ok[i])
            continue;
        ms.push_back((x[i].received - x[i].due) * 1e3);
        sum += ms.back();
        lastReceived = std::max(lastReceived, x[i].received);
    }
    LatencyStats s;
    s.n = static_cast<s64>(ms.size());
    s.p50 = median(ms);
    s.p99 = quantile(ms, 0.99);
    s.mean = ratio(sum, static_cast<double>(ms.size()));
    // A backlog that kept growing is still draining well after the
    // last arrival was due.
    s.backlog = (lastReceived - lastDue) * 1e3 > kSloP99Ms;
    return s;
}

/** A rung's statistics: the median over its windows of each. */
LatencyStats
rungStats(std::size_t rung, const std::vector<Window> &windows,
          const std::vector<Exchange> &x, const std::vector<bool> &ok)
{
    std::vector<double> p50, p99, mean, backlog;
    LatencyStats s;
    for (const Window &w : windows) {
        if (w.rung != rung)
            continue;
        LatencyStats ws = windowStats(w, x, ok);
        p50.push_back(ws.p50);
        p99.push_back(ws.p99);
        mean.push_back(ws.mean);
        backlog.push_back(ws.backlog ? 1.0 : 0.0);
        s.n += ws.n;
    }
    s.p50 = median(p50);
    s.p99 = median(p99);
    s.mean = median(mean);
    s.backlog = median(backlog) > 0.5;
    return s;
}

/** Highest offered rate meeting the SLO, interpolated in log p99
 *  between the last passing and the first failing rung (a rung failing
 *  on backlog alone counts as sitting at the limit, so the estimate
 *  moves continuously as a rung crosses over). */
double
sloRate(const std::vector<LatencyStats> &stats)
{
    auto passes = [&](std::size_t i) {
        return !stats[i].backlog && stats[i].p99 <= kSloP99Ms;
    };
    std::size_t firstFail = 0;
    while (firstFail < stats.size() && passes(firstFail))
        ++firstFail;
    if (firstFail == 0)
        return kLadder[0] * kSloP99Ms / std::max(stats[0].p99, kSloP99Ms);
    if (firstFail == stats.size())
        return kLadder[stats.size() - 1];
    const std::size_t lo = firstFail - 1, hi = firstFail;
    double a = std::log(std::max(stats[lo].p99, 1e-3));
    double b = std::log(std::max(stats[hi].p99, kSloP99Ms));
    double f = b > a ? (std::log(kSloP99Ms) - a) / (b - a) : 0.0;
    return kLadder[lo] + std::clamp(f, 0.0, 1.0) * (kLadder[hi] - kLadder[lo]);
}

} // namespace

void
runServeHot(const Options &options, Outcome *out)
{
    Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 23);
    const std::vector<WorkingPlan> set = workingSet();
    const std::vector<std::size_t> byRank = rankOrder(set);
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t r = 1; r <= set.size(); ++r)
        cdf.push_back(total += 1.0 / std::pow(static_cast<double>(r),
                                              kZipfExponent));
    for (double &c : cdf)
        c /= total;

    const std::string cacheDir = options.workDir + "/serve_hot.cache";
    HotSetup setup;
    std::vector<double> setupSeconds;
    const int repeats = options.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        double start = now();
        if (!precompile(set, cacheDir, options.trace, &setup, out))
            return;
        setupSeconds.push_back(now() - start);
    }

    // The schedule: a warm-up window (not measured: it fills the
    // engine's plan cache), then the ladder walked kPasses times — or,
    // traced, one window at the reference rate.
    std::vector<double> due;
    std::vector<std::size_t> plans;
    std::vector<Window> windows;
    const std::size_t none = std::size(kLadder);
    const double reference = kLadder[kReferenceRung];
    windows.push_back(scheduleWindow(none, reference, kWarmupSeconds, cdf,
                                     byRank, rng, &due, &plans));
    if (options.trace) {
        windows.push_back(scheduleWindow(kReferenceRung, reference,
                                         options.seconds / 2.0, cdf, byRank,
                                         rng, &due, &plans));
    } else {
        double inverse = 0.0;
        for (double rate : kLadder)
            inverse += 1.0 / rate;
        const double perWindow = options.seconds / (kPasses * inverse);
        for (int pass = 0; pass < kPasses; ++pass) {
            for (std::size_t r = 0; r < std::size(kLadder); ++r)
                windows.push_back(scheduleWindow(r, kLadder[r],
                                                 perWindow / kLadder[r], cdf,
                                                 byRank, rng, &due, &plans));
        }
    }
    std::vector<Planned> planned;
    for (std::size_t i = 0; i < due.size(); ++i) {
        planned.push_back(Planned{set[plans[i]].line.render(
                                      cmswitch::concat("q", i)),
                                  setup.keys[plans[i]], plans[i]});
    }

    auto check = [&](const std::vector<Exchange> &x) {
        std::vector<bool> ok(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            ++out->attempted;
            ok[i] = checkExchange(x[i], planned[i], {"memory", "disk"}, out);
        }
        return ok;
    };
    // Generator lag over the reference rung decides validity; overload
    // rungs may lag without hiding anything, since latency runs from
    // the due time.
    auto lagP99 = [&](const std::vector<Exchange> &x) {
        std::vector<double> lag;
        for (const Window &w : windows) {
            for (std::size_t i = w.first;
                 w.rung == kReferenceRung && i < w.last; ++i)
                lag.push_back((x[i].sent - x[i].due) * 1e3);
        }
        double p99 = quantile(lag, 0.99);
        if (p99 > kMaxGeneratorLagMs)
            out->fail(cmswitch::concat("generator lag p99 ", p99,
                                       " ms exceeds ", kMaxGeneratorLagMs,
                                       " ms: run invalid"));
        return p99;
    };

    if (options.trace) {
        std::vector<Exchange> untraced =
            runOpenLoop(cacheDir, planned, due, windows, out);
        std::vector<bool> okUntraced = check(untraced);
        TracedPhase phase;
        std::vector<std::string> setLines;
        for (const WorkingPlan &plan : set)
            setLines.push_back(plan.line.render("w"));
        traceGraphBuilds(setLines);
        std::vector<Exchange> traced;
        {
            cmswitch::obs::Span span("bench.serve_session", "bench");
            traced = runOpenLoop(cacheDir, planned, due, windows, out);
        }
        std::string error;
        if (!phase.finish(options.outDir + "/serve_hot.trace.json",
                          &error))
            out->fail(error);
        std::vector<bool> ok = check(traced);
        const Window &ref = windows[1];
        LayerReport report;
        compilerLayers(phase, &report);
        graphBuildLayer(phase, &report);
        std::vector<Exchange> okExchanges;
        s64 shed = 0;
        for (std::size_t i = ref.first; i < ref.last; ++i) {
            if (ok[i])
                okExchanges.push_back(traced[i]);
            shed += traced[i].status == "shed" ? 1 : 0;
        }
        serveLayers(okExchanges, static_cast<s64>(ref.last - ref.first),
                    shed, &report);
        report.set("generator.lag_p99_ms", lagP99(traced),
                   static_cast<s64>(ref.last - ref.first));
        report.set("obs.trace_overhead_ratio",
                   ratio(windowStats(ref, traced, ok).mean,
                         windowStats(ref, untraced, okUntraced).mean));
        std::vector<double> cycles;
        for (const ArtifactPtr &a : setup.artifacts)
            cycles.push_back(static_cast<double>(a->result.totalCycles()));
        report.set("compiler.plan_cycles_geomean", geomean(cycles),
                   static_cast<s64>(cycles.size()));
        report.set("disk.cache_mb",
                   static_cast<double>(dirBytes(cacheDir, "")) / 1048576.0);
        std::vector<std::string> lines;
        std::vector<ArtifactPtr> artifacts;
        for (std::size_t i = ref.first; i < ref.last && lines.size() < 64;
             ++i) {
            lines.push_back(planned[i].line);
            artifacts.push_back(setup.artifacts[planned[i].plan]);
        }
        timePublicCalls(lines, artifacts, &report);
        report.emit(out);
        removeDir(cacheDir);
        return;
    }

    std::vector<Exchange> x = runOpenLoop(cacheDir, planned, due, windows, out);
    std::vector<bool> ok = check(x);
    double lag = lagP99(x);
    std::vector<LatencyStats> stats;
    for (std::size_t r = 0; r < std::size(kLadder); ++r) {
        stats.push_back(rungStats(r, windows, x, ok));
        auto rate = static_cast<int>(kLadder[r]);
        out->addInfo(cmswitch::concat("rung_", rate, "_rps.p50_ms"),
                     stats.back().p50, "ms", stats.back().n);
        out->addInfo(cmswitch::concat("rung_", rate, "_rps.p99_ms"),
                     stats.back().p99, "ms", stats.back().n);
    }
    const LatencyStats &ref = stats[kReferenceRung];
    // The reported p50 is the quietest reference window's: at this load
    // the p50 is mostly thread wake-ups, which a noisy stretch on a
    // shared VM can triple for a whole window; the p99 is dominated by
    // the heavy plans' own work and keeps the median over windows.
    std::vector<double> refP50;
    for (const Window &w : windows) {
        if (w.rung == kReferenceRung)
            refP50.push_back(windowStats(w, x, ok).p50);
    }
    s64 memory = 0, disk = 0, coalesced = 0, okCount = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (!ok[i])
            continue;
        ++okCount;
        coalesced += x[i].coalesced ? 1 : 0;
        memory += !x[i].coalesced && x[i].cache == "memory" ? 1 : 0;
        disk += !x[i].coalesced && x[i].cache == "disk" ? 1 : 0;
    }
    out->addEndToEnd("setup_s", median(setupSeconds), "s", repeats,
                     "setup_s");
    out->addEndToEnd("peak_rss_mb", peakRssMb(), "MiB", 1, "peak_rss_mb");
    out->addEndToEnd("throughput_per_s", sloRate(stats), "1/s",
                     static_cast<s64>(x.size()), "slo_rps");
    out->addEndToEnd("latency_ms", quantile(refP50, 0.0), "ms", ref.n,
                     "latency_p50_ms");
    out->addEndToEnd("tail_latency_ms", ref.p99, "ms", ref.n,
                     "latency_p99_ms");
    out->addInfo("generator.lag_p99_ms", lag, "ms", ref.n);
    out->addInfo("memory_share", ratio(memory, okCount), "ratio", okCount);
    out->addInfo("disk_share", ratio(disk, okCount), "ratio", okCount);
    out->addInfo("coalesced_share", ratio(coalesced, okCount), "ratio",
                 okCount);
    out->addInfo("disk_mb",
                 static_cast<double>(dirBytes(cacheDir, "")) / 1048576.0,
                 "MiB");
    removeDir(cacheDir);
}

// ------------------------------------------------------------ kv sweep

namespace {

constexpr s64 kStepsPerFamily = 256; ///< upper bound; the clock stops first
/** A family's KV lengths climb by its stride for this many steps, then
 *  start over one above where they began, so per-step cost does not
 *  drift with how many steps a faster build gets through. */
constexpr s64 kSweepWrap = 24;
constexpr s64 kTracedStepsPerFamily = 8;

struct Family
{
    Line base;
    s64 start = 0;
    s64 stride = 0;
};

/** Client c owns families 3c..3c+2: each model once, alternating
 *  chips, so the two clients carry comparable compile work. */
std::vector<Family>
drawFamilies(Rng &rng)
{
    std::vector<Family> families;
    const char *models[] = {"opt-6.7b", "llama2-7b", "opt-13b"};
    for (int client = 0; client < 2; ++client) {
        for (int m = 0; m < 3; ++m) {
            const char *chip = (client + m) % 2 == 0 ? "dynaplasia" : "prime";
            families.push_back(Family{Line{models[m], chip, 0, 0, 2},
                                      rng.range(128, 255),
                                      rng.range(16, 32)});
        }
    }
    return families;
}

/** Request line + expected key of step @p step of client @p client. */
struct Sweep
{
    std::vector<Planned> planned; ///< [client][step] flattened
    s64 steps = 0;                ///< per client

    std::size_t
    index(int client, s64 step) const
    {
        return static_cast<std::size_t>(client * steps + step);
    }
};

bool
buildSweep(const std::vector<Family> &families, s64 stepsPerFamily,
           Sweep *sweep, Outcome *out)
{
    sweep->steps = 3 * stepsPerFamily;
    sweep->planned.clear();
    for (int client = 0; client < 2; ++client) {
        for (s64 step = 0; step < sweep->steps; ++step) {
            const Family &f = families[static_cast<std::size_t>(
                client * 3 + step % 3)];
            Line line = f.base;
            const s64 k = step / 3;
            line.decode =
                f.start + f.stride * (k % kSweepWrap) + k / kSweepWrap;
            std::size_t index = sweep->planned.size();
            std::string text = line.render(cmswitch::concat("q", index));
            cmswitch::CompileRequest request;
            std::string error;
            if (!resolveLine(text, &request, &error)) {
                out->fail("resolve " + text + ": " + error);
                return false;
            }
            sweep->planned.push_back(
                Planned{text, cmswitch::requestKey(request), index});
        }
    }
    return true;
}

struct SweepRun
{
    std::vector<Exchange> exchanges; ///< answered steps only
    std::vector<std::size_t> indices;
    double wall = 0.0;
};

/** Both clients step until @p seconds pass or @p maxSteps per client. */
SweepRun
runSweep(const Sweep &sweep, const std::string &cacheDir, double seconds,
         s64 maxSteps, Outcome *out)
{
    freshDir(cacheDir);
    flushWrites();
    // Every request is a new key: a plan cache would only hold memory.
    Session session(engineOptions(cacheDir, 4), sweep.planned.size());
    std::vector<s64> done(2, 0);
    double start = now();
    auto client = [&](int c) {
        for (s64 step = 0; step < maxSteps && now() - start < seconds;
             ++step) {
            std::size_t i = sweep.index(c, step);
            session.send(i, now(), sweep.planned[i].line);
            done[static_cast<std::size_t>(c)] = step + 1;
            if (!session.wait(i, 120.0))
                break; // checked (and failed) as unanswered below
        }
    };
    std::thread second(client, 1);
    client(0);
    second.join();
    SweepRun run;
    run.wall = now() - start;
    session.close();
    checkStrays(session, out);
    for (int c = 0; c < 2; ++c) {
        for (s64 step = 0; step < done[static_cast<std::size_t>(c)];
             ++step) {
            run.indices.push_back(sweep.index(c, step));
            run.exchanges.push_back(session.exchange(run.indices.back()));
        }
    }
    return run;
}

std::vector<bool>
checkSweep(const Sweep &sweep, const SweepRun &run, Outcome *out)
{
    std::vector<bool> ok(run.exchanges.size());
    for (std::size_t k = 0; k < run.exchanges.size(); ++k) {
        ++out->attempted;
        ok[k] = checkExchange(run.exchanges[k],
                              sweep.planned[run.indices[k]],
                              {"neighbor", "cold"}, out);
    }
    return ok;
}

} // namespace

void
runServeKvSweep(const Options &options, Outcome *out)
{
    Rng rng(options.seed * 0xd1b54a32d192ed03ull + 37);
    const std::vector<Family> families = drawFamilies(rng);
    const std::string cacheDir = options.workDir + "/serve_kv_sweep.cache";

    Sweep sweep;
    if (options.trace) {
        if (!buildSweep(families, kTracedStepsPerFamily, &sweep, out))
            return;
        SweepRun untraced =
            runSweep(sweep, cacheDir, 1e9, sweep.steps, out);
        checkSweep(sweep, untraced, out);
        TracedPhase phase;
        std::vector<std::string> sweepLines;
        for (const Planned &p : sweep.planned)
            sweepLines.push_back(p.line);
        traceGraphBuilds(sweepLines);
        SweepRun traced;
        {
            cmswitch::obs::Span span("bench.serve_session", "bench");
            traced = runSweep(sweep, cacheDir, 1e9, sweep.steps, out);
        }
        std::string error;
        if (!phase.finish(options.outDir + "/serve_kv_sweep.trace.json",
                          &error))
            out->fail(error);
        std::vector<bool> ok = checkSweep(sweep, traced, out);
        LayerReport report;
        compilerLayers(phase, &report);
        graphBuildLayer(phase, &report);
        std::vector<Exchange> okExchanges;
        for (std::size_t k = 0; k < ok.size(); ++k) {
            if (ok[k])
                okExchanges.push_back(traced.exchanges[k]);
        }
        serveLayers(okExchanges, static_cast<s64>(ok.size()), 0, &report);
        s64 plans = 0, warms = 0;
        double planBytes =
            static_cast<double>(dirBytes(cacheDir, ".plan", &plans));
        double warmBytes =
            static_cast<double>(dirBytes(cacheDir, ".warm", &warms));
        auto compiles = static_cast<double>(okExchanges.size());
        report.set("disk.plan_kb_per_compile",
                   ratio(planBytes / 1024.0, compiles), plans);
        report.set("disk.warm_kb_per_compile",
                   ratio(warmBytes / 1024.0, compiles), warms);
        report.set("disk.cache_mb",
                   static_cast<double>(dirBytes(cacheDir, "")) / 1048576.0);
        report.set("obs.trace_overhead_ratio",
                   ratio(traced.wall, untraced.wall));
        // The render timing needs artifacts: read the plans back.
        std::vector<std::string> lines;
        std::vector<ArtifactPtr> artifacts;
        std::vector<double> cycles;
        {
            cmswitch::DiskPlanCache disk(cacheDir);
            for (std::size_t k = 0; k < traced.indices.size(); ++k) {
                const Planned &p = sweep.planned[traced.indices[k]];
                ArtifactPtr artifact = disk.load(p.key);
                if (artifact == nullptr)
                    continue;
                cycles.push_back(
                    static_cast<double>(artifact->result.totalCycles()));
                if (lines.size() < 64) {
                    lines.push_back(p.line);
                    artifacts.push_back(std::move(artifact));
                }
            }
        }
        report.set("compiler.plan_cycles_geomean", geomean(cycles),
                   static_cast<s64>(cycles.size()));
        timePublicCalls(lines, artifacts, &report);
        report.emit(out);
        removeDir(cacheDir);
        return;
    }

    std::vector<double> setupSeconds;
    for (int i = 0; i < kSetupRepeats; ++i) {
        double start = now();
        freshDir(cacheDir);
        if (!buildSweep(families, kStepsPerFamily, &sweep, out))
            return;
        setupSeconds.push_back(now() - start);
    }
    SweepRun run = runSweep(sweep, cacheDir, options.seconds, sweep.steps, out);
    std::vector<bool> ok = checkSweep(sweep, run, out);
    std::vector<double> ms;
    s64 neighbor = 0;
    for (std::size_t k = 0; k < ok.size(); ++k) {
        if (!ok[k])
            continue;
        const Exchange &x = run.exchanges[k];
        ms.push_back((x.received - x.sent) * 1e3);
        neighbor += x.cache == "neighbor" ? 1 : 0;
    }
    if (run.exchanges.size() >= static_cast<std::size_t>(2 * sweep.steps))
        out->fail("sweep ran out of precomputed steps");
    auto n = static_cast<s64>(ms.size());
    out->addEndToEnd("setup_s", median(setupSeconds), "s", kSetupRepeats,
                     "setup_s");
    out->addEndToEnd("peak_rss_mb", peakRssMb(), "MiB", 1, "peak_rss_mb");
    out->addEndToEnd("throughput_per_s",
                     static_cast<double>(n) / run.wall, "1/s", n,
                     "compiles_per_s");
    out->addEndToEnd("latency_ms", median(ms), "ms", n, "latency_p50_ms");
    out->addEndToEnd("tail_latency_ms", quantile(ms, 0.9), "ms", n,
                     "latency_p90_ms");
    out->addInfo("disk_mb",
                 static_cast<double>(dirBytes(cacheDir, "")) / 1048576.0,
                 "MiB");
    out->addInfo("neighbor_share", ratio(neighbor, n), "ratio", n);
    removeDir(cacheDir);
}

} // namespace perfbench
