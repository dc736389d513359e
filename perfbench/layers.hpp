/**
 * @file
 * The traced run: an installed obs::MetricsRegistry + TraceRecorder
 * around one phase of a workload, the per-layer metric catalog every
 * traced run reports, and the derivations shared by the workloads.
 *
 * Every workload emits the whole catalog. A layer the workload does
 * not exercise reads 0 (for example the simulator's event counts on
 * compile_cold); README.md maps each metric to the workloads that
 * exercise it.
 */

#ifndef CMSWITCH_PERFBENCH_LAYERS_HPP
#define CMSWITCH_PERFBENCH_LAYERS_HPP

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/obs.hpp"
#include "trace_stats.hpp"

namespace perfbench {

/** Per-layer values by catalog name; unset entries report 0. */
class LayerReport
{
  public:
    void set(const std::string &name, double value, s64 samples = 0);

    /** Append the full catalog, in catalog order, to @p out. */
    void emit(Outcome *out) const;

  private:
    std::map<std::string, std::pair<double, s64>> values_;
};

/** (name, unit) of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> &layerCatalog();

/**
 * One traced phase: constructing installs a fresh registry and
 * recorder process-wide; finish() uninstalls them, writes the Chrome
 * trace to @p tracePath (when non-empty) and folds its spans into
 * per-name self-time totals.
 */
class TracedPhase
{
  public:
    TracedPhase();
    ~TracedPhase();

    TracedPhase(const TracedPhase &) = delete;
    TracedPhase &operator=(const TracedPhase &) = delete;

    /** Returns false (with @p error) when the trace dropped events or
     *  cannot be written or analysed. */
    bool finish(const std::string &tracePath, std::string *error);

    cmswitch::s64 counter(cmswitch::obs::Met m) const;
    SpanTotals span(const std::string &name) const;

  private:
    /** mutable: MetricsRegistry::counter() is non-const. */
    mutable cmswitch::obs::MetricsRegistry registry_;
    cmswitch::obs::TraceRecorder recorder_;
    std::map<std::string, SpanTotals> spans_;
    bool installed_ = false;
};

/** The compiler, solver, pricing and cache layers, per compile of the
 *  phase (compile_artifact spans); ratios over their own attempts. */
void compilerLayers(const TracedPhase &phase, LayerReport *report);

/** Inside a traced phase: resolve each of @p lines (building its graph)
 *  under a models.graph_build span. */
void traceGraphBuilds(const std::vector<std::string> &lines);

/** After it: models.graph_build_ms, the mean of those spans. */
void graphBuildLayer(const TracedPhase &phase, LayerReport *report);

/** ratio helper: @p part / @p whole, 0 when @p whole is 0. */
double ratio(double part, double whole);

/**
 * Time the serve protocol's public calls over @p lines (the workload's
 * own request lines): parse, resolve, requestKey, and — over
 * @p artifacts, matched by index when present — the result renderer.
 * Each call is repeated so a sample spans at least ~1 ms.
 */
void timePublicCalls(const std::vector<std::string> &lines,
                     const std::vector<cmswitch::ArtifactPtr> &artifacts,
                     LayerReport *report);

} // namespace perfbench

#endif // CMSWITCH_PERFBENCH_LAYERS_HPP
