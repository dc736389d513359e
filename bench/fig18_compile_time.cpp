/**
 * @file
 * Figure 18: compilation time of CMSwitch vs CIM-MLC per benchmark.
 * The paper reports CMSwitch taking 2.8x-6.3x longer than CIM-MLC
 * (the expanded joint optimization space), with CNNs costlier than
 * transformers thanks to per-block result reuse.
 *
 * This driver doubles as the repo's compile-time perf trajectory: it
 * times every fig14 workload under three compiler configurations —
 * CIM-MLC, the optimized CMSwitch search, and the retained
 * pre-optimization reference search (SegmenterOptions::referenceSearch)
 * — through bench::Harness (steady clock, warmup + trimmed mean) and,
 * with --out, emits the cmswitch-bench-v1 JSON report that
 * tests/bench_gate.cmake gates on and CI uploads as
 * BENCH_compile_time.json. The differential tests guarantee the fast
 * and reference searches produce byte-identical plans, so the
 * speedup_vs_reference column measures pure search-efficiency gains.
 */

#include "bench_util.hpp"
#include "harness.hpp"

namespace cmswitch {
namespace {

/**
 * The graphs one fig18 measurement compiles: non-generative models are
 * a single pass; generative ones replay evaluateGenerative's prefill +
 * per-KV-bucket decode programs (batch 1, 64+64 tokens, 2 buckets).
 * Prebuilt once so the timed region is compilation only.
 */
std::vector<Graph>
benchGraphs(const ZooEntry &entry, bool full)
{
    std::vector<Graph> graphs;
    if (entry.generative) {
        TransformerConfig cfg = bench::trimmedConfig(entry.name, full);
        const s64 input_len = 64, output_len = 64, buckets = 2;
        graphs.push_back(buildTransformerPrefill(cfg, 1, input_len));
        for (s64 b = 0; b < buckets; ++b) {
            s64 tokens_lo = b * output_len / buckets;
            s64 tokens_hi = (b + 1) * output_len / buckets;
            s64 kv_len = input_len + (tokens_lo + tokens_hi) / 2 + 1;
            graphs.push_back(buildTransformerDecodeStep(cfg, 1, kv_len));
        }
    } else if (entry.name == "bert-large") {
        TransformerConfig cfg = bench::trimmedConfig(entry.name, full);
        graphs.push_back(buildTransformerPrefill(cfg, 1, 64));
    } else {
        graphs.push_back(buildModelByName(entry.name, 1));
    }
    return graphs;
}

double
compileSeconds(const bench::Harness &harness, const Compiler &compiler,
               const std::vector<Graph> &graphs)
{
    bench::TimingStats stats = harness.time([&] {
        for (const Graph &g : graphs)
            compiler.compile(g);
    });
    return stats.trimmedMean;
}

} // namespace

int
benchMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseArgs(argc, argv);
    ChipConfig chip = ChipConfig::dynaplasia();

    bench::Harness::Options opts;
    opts.repeats = args.repeats > 0 ? args.repeats : (args.full ? 20 : 3);
    opts.warmups = args.warmups >= 0 ? args.warmups : 1;
    bench::Harness harness(opts);

    auto mlc = makeCimMlcCompiler(chip);
    auto ours = makeCmSwitchCompiler(chip);
    CmSwitchOptions ref_options;
    ref_options.segmenter.referenceSearch = true;
    CmSwitchCompiler reference(chip, ref_options, "cmswitch-reference");

    bench::BenchReport report("fig18_compile_time", opts);
    report.setConfig("sweep", args.full ? "full" : "trimmed");
    report.setConfig("chip", chip.name);

    Table t("Fig. 18: compilation time (seconds, trimmed mean of "
            + std::to_string(opts.repeats) + " runs)");
    t.addRow({"model", "cim-mlc (s)", "cmswitch (s)", "ratio",
              "reference (s)", "speedup"});
    std::vector<double> ratios, speedups;
    for (const ZooEntry &entry : fig14Benchmarks()) {
        std::vector<Graph> graphs = benchGraphs(entry, args.full);
        double mlc_s = compileSeconds(harness, *mlc, graphs);
        double ours_s = compileSeconds(harness, *ours, graphs);
        double ref_s = compileSeconds(harness, reference, graphs);
        double ratio = ours_s / std::max(mlc_s, 1e-9);
        double speedup = ref_s / std::max(ours_s, 1e-9);
        ratios.push_back(ratio);
        speedups.push_back(speedup);
        t.addRow(entry.name, {mlc_s, ours_s, ratio, ref_s, speedup}, 3);

        bench::BenchRecord record;
        record.name = entry.name;
        record.metric("cim_mlc_seconds", mlc_s)
            .metric("cmswitch_seconds", ours_s)
            .metric("cmswitch_reference_seconds", ref_s)
            .metric("ratio_vs_cim_mlc", ratio)
            .metric("speedup_vs_reference", speedup);
        report.add(std::move(record));
    }
    report.setSummary("geomean_ratio_vs_cim_mlc", bench::geomean(ratios));
    report.setSummary("geomean_speedup_vs_reference",
                      bench::geomean(speedups));

    t.print(std::cout);
    std::cout << "\nPaper anchors: CMSwitch compiles 2.8x-6.3x slower than "
                 "CIM-MLC; absolute times 95-660s on the authors' "
                 "machine/full models (ours are reduced configs). The "
                 "'reference' column is the retained pre-optimization "
                 "search (plan-identical by the differential tests).\n";

    if (!args.out.empty()) {
        report.write(args.out);
        std::cout << "bench report: " << args.out << "\n";
    }
    return 0;
}

} // namespace cmswitch

int
main(int argc, char **argv)
{
    return cmswitch::benchMain(argc, argv);
}
