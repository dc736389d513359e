#include "layers.hpp"

#include <fstream>

#include "support/strings.hpp"

namespace perfbench {

namespace obs = cmswitch::obs;
using obs::Met;

const std::vector<std::pair<std::string, std::string>> &
layerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> kCatalog =
        {
            {"models.graph_build_ms", "ms"},
            {"graph.passes_ms", "ms"},
            {"partitioner.self_ms", "ms"},
            {"codegen.self_ms", "ms"},
            {"segmenter.self_ms", "ms"},
            {"segmenter.dp_boundaries", "count"},
            {"segmenter.sig_cache_hit_ratio", "ratio"},
            {"allocator.self_ms", "ms"},
            {"allocator.probes", "count"},
            {"allocator.probe_shortcut_ratio", "ratio"},
            {"allocator.bisection_iters", "count"},
            {"solver.mip_ms", "ms"},
            {"solver.mip_nodes", "count"},
            {"solver.lp_warm_hit_ratio", "ratio"},
            {"metaop.validate_ms", "ms"},
            {"sim.energy_ms", "ms"},
            {"compiler.plan_cycles_geomean", "cycles"},
            {"service.request_key_us", "us"},
            {"plan_cache.memory_hit_ratio", "ratio"},
            {"plan_cache.evictions", "count"},
            {"disk_cache.hit_ratio", "ratio"},
            {"disk_cache.load_ms", "ms"},
            {"disk_cache.store_ms", "ms"},
            {"incremental.lookup_ms", "ms"},
            {"incremental.neighbor_hit_ratio", "ratio"},
            {"incremental.dp_rows_reused", "count"},
            {"disk.plan_kb_per_compile", "KiB"},
            {"disk.warm_kb_per_compile", "KiB"},
            {"disk.cache_mb", "MiB"},
            {"serve.parse_us", "us"},
            {"serve.resolve_us", "us"},
            {"serve.render_us", "us"},
            {"serve.queue_wait_p50_ms", "ms"},
            {"serve.queue_wait_p99_ms", "ms"},
            {"serve.execute_memory_p50_ms", "ms"},
            {"serve.execute_disk_p50_ms", "ms"},
            {"serve.execute_neighbor_p50_ms", "ms"},
            {"serve.execute_cold_p50_ms", "ms"},
            {"serve.overhead_p50_ms", "ms"},
            {"serve.coalesced_ratio", "ratio"},
            {"serve.shed_ratio", "ratio"},
            {"generator.lag_p99_ms", "ms"},
            {"sim.events", "count"},
            {"sim.shed_ratio", "ratio"},
            {"sim.plan_table_share", "ratio"},
            {"sim.ns_per_event_moderate", "ns"},
            {"sim.ns_per_event_saturated", "ns"},
            {"obs.trace_overhead_ratio", "ratio"},
        };
    return kCatalog;
}

void
LayerReport::set(const std::string &name, double value, s64 samples)
{
    values_[name] = {value, samples};
}

void
LayerReport::emit(Outcome *out) const
{
    for (const auto &[name, unit] : layerCatalog()) {
        auto it = values_.find(name);
        if (it == values_.end())
            out->addLayer(name, 0.0, unit);
        else
            out->addLayer(name, it->second.first, unit, it->second.second);
    }
    for (const auto &[name, value] : values_) {
        bool known = false;
        for (const auto &entry : layerCatalog())
            known = known || entry.first == name;
        if (!known)
            out->fail("per-layer metric outside the catalog: " + name);
    }
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

TracedPhase::TracedPhase()
{
    obs::install(&registry_, &recorder_);
    installed_ = true;
}

TracedPhase::~TracedPhase()
{
    if (installed_)
        obs::uninstall();
}

bool
TracedPhase::finish(const std::string &tracePath, std::string *error)
{
    obs::uninstall();
    installed_ = false;
    if (recorder_.droppedEvents() > 0) {
        // Capped per-thread buffers would undercount every layer.
        *error = cmswitch::concat("trace dropped ", recorder_.droppedEvents(),
                                  " events");
        return false;
    }
    std::string json = recorder_.exportJson(0);
    if (!tracePath.empty()) {
        std::ofstream file(tracePath, std::ios::binary);
        file << json;
        if (!file) {
            *error = "cannot write " + tracePath;
            return false;
        }
    }
    return spanTotals(json, &spans_, error);
}

cmswitch::s64
TracedPhase::counter(Met m) const
{
    return registry_.counter(m).get();
}

SpanTotals
TracedPhase::span(const std::string &name) const
{
    auto it = spans_.find(name);
    return it == spans_.end() ? SpanTotals{} : it->second;
}

void
compilerLayers(const TracedPhase &phase, LayerReport *report)
{
    SpanTotals compiles = phase.span("compile_artifact");
    auto n = static_cast<double>(compiles.count);
    auto perCompile = [&](double total) { return ratio(total, n); };
    auto selfOf = [&](std::initializer_list<const char *> names) {
        double ms = 0.0;
        for (const char *name : names)
            ms += phase.span(name).selfMs;
        return ms;
    };
    auto count = [&](Met m) {
        return static_cast<double>(phase.counter(m));
    };
    auto meanMs = [&](const char *name) {
        SpanTotals s = phase.span(name);
        return ratio(s.totalMs, static_cast<double>(s.count));
    };

    if (compiles.count > 0) {
        s64 samples = compiles.count;
        report->set("graph.passes_ms",
                    perCompile(phase.span("frontend_passes").totalMs),
                    samples);
        report->set("partitioner.self_ms",
                    perCompile(selfOf({"partition.flatten"})), samples);
        report->set("codegen.self_ms", perCompile(selfOf({"codegen"})),
                    samples);
        report->set("segmenter.self_ms",
                    perCompile(selfOf({"segmenter.run", "dp.phase_a",
                                       "dp.phase_b", "dp.phase_c",
                                       "dp.alloc_miss"})),
                    samples);
        report->set("segmenter.dp_boundaries",
                    perCompile(count(Met::kDpBoundaries)), samples);
        report->set("allocator.self_ms",
                    perCompile(selfOf(
                        {"alloc.allocate", "alloc.probe", "alloc.fill"})),
                    samples);
        report->set("allocator.probes", perCompile(count(Met::kAllocProbes)),
                    samples);
        report->set("allocator.bisection_iters",
                    perCompile(count(Met::kAllocBisectionIters)), samples);
        report->set("solver.mip_ms",
                    perCompile(phase.span("mip.solve").totalMs), samples);
        report->set("solver.mip_nodes", perCompile(count(Met::kMipNodes)),
                    samples);
        report->set("metaop.validate_ms",
                    perCompile(phase.span("validate").totalMs), samples);
        report->set("sim.energy_ms",
                    perCompile(phase.span("energy.price").totalMs), samples);
        report->set("incremental.dp_rows_reused",
                    perCompile(count(Met::kIncrementalDpRowsReused)),
                    samples);
    }
    report->set("segmenter.sig_cache_hit_ratio",
                ratio(count(Met::kDpSigCacheHits),
                      count(Met::kDpSigCacheHits)
                          + count(Met::kDpSigCacheMisses)));
    report->set("allocator.probe_shortcut_ratio",
                ratio(count(Met::kAllocProbeShortcuts),
                      count(Met::kAllocProbes)));
    report->set("solver.lp_warm_hit_ratio",
                ratio(count(Met::kLpWarmHits),
                      count(Met::kLpWarmHits) + count(Met::kLpWarmMisses)));
    report->set("plan_cache.memory_hit_ratio",
                ratio(count(Met::kPlanCacheHits),
                      count(Met::kPlanCacheHits)
                          + count(Met::kPlanCacheMisses)));
    report->set("plan_cache.evictions", count(Met::kPlanCacheEvictions));
    report->set("disk_cache.hit_ratio",
                ratio(count(Met::kDiskCacheHits),
                      count(Met::kDiskCacheHits)
                          + count(Met::kDiskCacheMisses)));
    report->set("disk_cache.load_ms", meanMs("disk_cache.load"),
                phase.span("disk_cache.load").count);
    report->set("disk_cache.store_ms", meanMs("disk_cache.store"),
                phase.span("disk_cache.store").count);
    report->set("incremental.lookup_ms",
                meanMs("incremental.neighbor_lookup"),
                phase.span("incremental.neighbor_lookup").count);
    double lookups = count(Met::kIncrementalNeighborHits)
                     + count(Met::kIncrementalNeighborPartials)
                     + count(Met::kIncrementalNeighborMisses);
    report->set("incremental.neighbor_hit_ratio",
                ratio(count(Met::kIncrementalNeighborHits), lookups));
}

void
traceGraphBuilds(const std::vector<std::string> &lines)
{
    for (const std::string &line : lines) {
        cmswitch::CompileRequest request;
        std::string error;
        obs::Span span("models.graph_build", "bench");
        resolveLine(line, &request, &error);
    }
}

void
graphBuildLayer(const TracedPhase &phase, LayerReport *report)
{
    SpanTotals build = phase.span("models.graph_build");
    report->set("models.graph_build_ms",
                ratio(build.totalMs, static_cast<double>(build.count)),
                build.count);
}

namespace {

/** Mean microseconds per call of @p call, repeated until a sample
 *  spans at least a millisecond. */
template <typename F>
double
perCallUs(F &&call)
{
    for (int reps = 1;; reps *= 4) {
        double start = now();
        for (int i = 0; i < reps; ++i)
            call();
        double elapsed = now() - start;
        if (elapsed >= 1e-3 || reps >= (1 << 16))
            return elapsed / reps * 1e6;
    }
}

} // namespace

void
timePublicCalls(const std::vector<std::string> &lines,
                const std::vector<cmswitch::ArtifactPtr> &artifacts,
                LayerReport *report)
{
    std::vector<double> parse, resolve, key, render;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        cmswitch::ServeRequest request;
        cmswitch::CompileRequest resolved;
        std::string error;
        parse.push_back(perCallUs([&] {
            cmswitch::parseServeRequest(lines[i], &request, &error);
        }));
        resolve.push_back(perCallUs([&] {
            cmswitch::resolveServeRequest(request, &resolved, &error);
        }));
        key.push_back(perCallUs([&] { cmswitch::requestKey(resolved); }));
        if (!artifacts.empty()) {
            const cmswitch::CompileArtifact &artifact =
                *artifacts[i % artifacts.size()];
            render.push_back(perCallUs([&] {
                cmswitch::renderServeResult(
                    request, artifact, cmswitch::CacheOutcome::kMemory,
                    false, cmswitch::ServiceRequestLatency{});
            }));
        }
    }
    auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return ratio(sum, static_cast<double>(v.size()));
    };
    auto n = static_cast<s64>(lines.size());
    report->set("serve.parse_us", mean(parse), n);
    report->set("serve.resolve_us", mean(resolve), n);
    report->set("service.request_key_us", mean(key), n);
    report->set("serve.render_us", mean(render),
                static_cast<s64>(render.size()));
}

} // namespace perfbench
