/**
 * @file
 * compile_cold: the cost every first deployment pays (the paper's
 * Fig. 18). One caller compiles a seeded draw of 30 distinct requests
 * through compileArtifact — no plan cache, no cache dir, so no
 * memory/disk/neighbor path — in closed loop, pass after pass, with
 * one search thread. The draw spans conv tiling (CNNs), full-depth
 * BERT, layers-2 prefill and KV-cache DynMatMul decode DPs on both
 * chips.
 */

#include <algorithm>
#include <map>

#include "arch/deha.hpp"
#include "layers.hpp"
#include "sim/functional.hpp"
#include "sim/timing.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cmswitch::ArtifactPtr;
using cmswitch::CompileRequest;

struct Request
{
    Line line;
    std::string text;
    CompileRequest request;
    std::string key;
    std::vector<double> ms; ///< compile wall per pass
    cmswitch::Cycles cycles = -1;
};

/**
 * The seeded draw, stratified so every seed has the same shape and
 * nearly the same cost: per chip the same models; the three prefill
 * models take a permutation of the three sequence lengths; each decode
 * (model, chip) pair takes one KV length from each half of [128, 1024]
 * (decode compile time swings up to 2x between neighbouring KV lengths,
 * so one draw per pair would make the total hinge on luck); and each
 * CNN runs the frontend passes on one chip the seed picks. tiny-mlp
 * never does: it is checked against the reference executor on its
 * unoptimized graph.
 */
std::vector<Line>
drawLines(u64 seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
    std::vector<Line> lines;
    const char *cnns[] = {"resnet18", "resnet50", "vgg16", "mobilenetv2"};
    std::vector<int> optimizeOn;
    for (std::size_t i = 0; i < std::size(cnns); ++i)
        optimizeOn.push_back(static_cast<int>(rng.range(0, 1)));
    for (int c = 0; c < 2; ++c) {
        const char *chip = c == 0 ? "dynaplasia" : "prime";
        lines.push_back(Line{"tiny-mlp", chip});
        for (std::size_t i = 0; i < std::size(cnns); ++i) {
            lines.push_back(Line{cnns[i], chip});
            lines.back().optimize = optimizeOn[i] == c;
        }
        lines.push_back(Line{"bert-large", chip, 128});
        std::vector<s64> seqs = {64, 128, 256};
        rng.shuffle(seqs);
        const char *prefill[] = {"gpt", "opt-6.7b", "llama2-7b"};
        for (int i = 0; i < 3; ++i)
            lines.push_back(Line{prefill[i], chip, seqs[i], 0, 2});
        for (const char *model : {"opt-6.7b", "llama2-7b", "opt-13b"}) {
            for (s64 half = 0; half < 2; ++half)
                lines.push_back(Line{model, chip, 0,
                                     128 + half * 448 + rng.range(0, 447),
                                     2});
        }
    }
    return lines;
}

/** Parse + resolve every line (the graph builds) and key it. */
bool
buildRequests(const std::vector<Line> &lines, std::vector<Request> *out,
              Outcome *outcome)
{
    out->clear();
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Request r;
        r.line = lines[i];
        r.text = lines[i].render(cmswitch::concat("c", i));
        std::string error;
        bool ok;
        {
            cmswitch::obs::Span span("models.graph_build", "bench");
            ok = resolveLine(r.text, &r.request, &error);
        }
        if (!ok) {
            outcome->fail("resolve " + r.text + ": " + error);
            return false;
        }
        r.key = cmswitch::requestKey(r.request);
        out->push_back(std::move(r));
    }
    return true;
}

/** Compile @p r once, timed, and check the artifact. */
ArtifactPtr
compileChecked(Request &r, Outcome *out)
{
    ++out->attempted;
    double start = now();
    ArtifactPtr artifact;
    {
        cmswitch::obs::Span span("bench.compile_artifact", "bench");
        artifact = cmswitch::compileArtifact(r.request, r.key);
    }
    r.ms.push_back((now() - start) * 1e3);

    if (artifact == nullptr || artifact->key != r.key) {
        out->fail("no artifact or wrong key for " + r.text);
        return artifact;
    }
    if (!artifact->validation.ok()) {
        out->fail("validation: " + r.text + ": "
                  + artifact->validation.summary());
        return artifact;
    }
    cmswitch::Deha deha(artifact->chip);
    cmswitch::Cycles cycles = artifact->result.totalCycles();
    cmswitch::Cycles repriced =
        cmswitch::TimingSimulator(deha).run(artifact->result.program).total();
    if (repriced != cycles) {
        out->fail(cmswitch::concat("timing re-price ", repriced,
                                   " != compile ", cycles, " for ", r.text));
        return artifact;
    }
    if (r.cycles >= 0 && r.cycles != cycles) {
        out->fail("plan changed between passes for " + r.text);
        return artifact;
    }
    if (r.cycles < 0 && r.line.model == "tiny-mlp"
        && cmswitch::verifyProgram(r.request.workload,
                                   artifact->result.program, deha)
               != 0) {
        out->fail("functional mismatch vs reference for " + r.text);
        return artifact;
    }
    r.cycles = cycles;
    return artifact;
}

/** One pass over every request in a seeded order; returns its wall. */
double
runPass(std::vector<Request> &requests, Rng &rng, Outcome *out,
        std::vector<ArtifactPtr> *artifacts = nullptr)
{
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    if (artifacts != nullptr)
        artifacts->assign(requests.size(), nullptr);
    double start = now();
    for (std::size_t i : order) {
        ArtifactPtr artifact = compileChecked(requests[i], out);
        if (artifacts != nullptr)
            (*artifacts)[i] = artifact;
    }
    return now() - start;
}

/** Per model family, the geomean over its requests of quantile @p q
 *  of each request's compile times. tiny-mlp is left out: it is in the
 *  draw for the functional check, and its 0.1 ms compile measures the
 *  cache state more than the compiler. */
std::map<std::string, double>
familyMs(const std::vector<Request> &requests, double q)
{
    std::map<std::string, std::vector<double>> samples;
    for (const Request &r : requests) {
        if (r.line.model != "tiny-mlp")
            samples[r.line.family()].push_back(quantile(r.ms, q));
    }
    std::map<std::string, double> families;
    for (const auto &[family, values] : samples)
        families[family] = geomean(values);
    return families;
}

/** Every family weighted equally. */
double
familyGeomean(const std::vector<Request> &requests, double q)
{
    std::vector<double> values;
    for (const auto &[family, ms] : familyMs(requests, q))
        values.push_back(ms);
    return geomean(values);
}

double
cyclesGeomean(const std::vector<Request> &requests)
{
    std::vector<double> cycles;
    for (const Request &r : requests)
        cycles.push_back(static_cast<double>(r.cycles));
    return geomean(cycles);
}

} // namespace

void
runCompileCold(const Options &options, Outcome *out)
{
    const std::vector<Line> lines = drawLines(options.seed);
    Rng order(options.seed + 1);
    std::vector<Request> requests;

    if (options.trace) {
        if (!buildRequests(lines, &requests, out))
            return;
        runPass(requests, order, out); // warm the allocator and caches
        double untraced = runPass(requests, order, out);
        TracedPhase phase;
        std::vector<Request> traced;
        if (!buildRequests(lines, &traced, out))
            return;
        std::vector<ArtifactPtr> artifacts;
        double tracedWall = runPass(traced, order, out, &artifacts);
        std::string error;
        if (!phase.finish(options.outDir + "/compile_cold.trace.json",
                          &error)) {
            out->fail(error);
            return;
        }
        LayerReport report;
        compilerLayers(phase, &report);
        graphBuildLayer(phase, &report);
        report.set("compiler.plan_cycles_geomean", cyclesGeomean(traced),
                   static_cast<s64>(traced.size()));
        report.set("obs.trace_overhead_ratio", tracedWall / untraced);
        std::vector<std::string> texts;
        for (const Request &r : traced)
            texts.push_back(r.text);
        timePublicCalls(texts, artifacts, &report);
        report.emit(out);
        return;
    }

    // Set-up is a few milliseconds here, so it is repeated more often
    // than elsewhere to give its median the same footing.
    constexpr int kRepeats = 3 * kSetupRepeats;
    std::vector<double> setup;
    for (int i = 0; i < kRepeats; ++i) {
        double start = now();
        if (!buildRequests(lines, &requests, out))
            return;
        setup.push_back(now() - start);
    }

    flushWrites();
    double start = now();
    s64 passes = 0;
    while (passes == 0 || now() - start < options.seconds) {
        runPass(requests, order, out);
        ++passes;
    }
    double compileSeconds = 0.0;
    for (const Request &r : requests) {
        for (double ms : r.ms)
            compileSeconds += ms / 1e3;
    }
    s64 compiles = out->attempted;
    out->addEndToEnd("setup_s", median(setup), "s", kRepeats,
                     "setup_s");
    out->addEndToEnd("peak_rss_mb", peakRssMb(), "MiB", 1, "peak_rss_mb");
    out->addEndToEnd("throughput_per_s",
                     static_cast<double>(compiles) / compileSeconds, "1/s",
                     compiles, "compiles_per_s");
    out->addEndToEnd("latency_ms", familyGeomean(requests, 0.5), "ms",
                     compiles, "compile_ms_geomean");
    out->addEndToEnd("tail_latency_ms", familyGeomean(requests, 0.9), "ms",
                     compiles, "compile_ms_p90_geomean");
    out->addInfo("plan_cycles_geomean", cyclesGeomean(requests), "cycles",
                 static_cast<s64>(requests.size()));
    for (const auto &[family, ms] : familyMs(requests, 0.5))
        out->addInfo(family + ".compile_ms", ms, "ms", passes);
}

} // namespace perfbench
