/**
 * @file
 * Differential pinning of the optimized search stack: every compiler
 * of the scenario matrix (3 chips x 4 workloads x 4 compilers) is run
 * twice — once on the fast search (flat-hash range cache, hoisted DP
 * invariants, probe-bound shortcuts, warm-started LPs) and once on the
 * retained pre-optimization path (SegmenterOptions::referenceSearch) —
 * and the two serialized CompileResults must be byte-identical. This
 * is the license for every shortcut the fast path takes: any
 * divergence, down to a single latency cycle or reuse split, fails
 * here with the first differing byte offset.
 *
 * A final pass recompiles with full observability installed (metrics
 * registry + trace recorder): instrumentation observes, never steers,
 * so the plan must again be byte-identical — the `--trace`/`--metrics`
 * flags can never change what the compiler emits.
 *
 * The fast-vs-reference compare cannot see a drift in code both
 * searches share (the simplex, the MIP, the cost model), nor a
 * difference between compilers or standard libraries, since each
 * build only compares with itself. So each cell's fast plan is also
 * pinned to a committed FNV-1a digest (kGoldenDigests).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "obs/obs.hpp"
#include "scenario_util.hpp"
#include "support/hash.hpp"
#include "support/serialize.hpp"

namespace cmswitch {
namespace {

std::string
serializedPlan(const Compiler &compiler, const Graph &graph)
{
    CompileResult result = compiler.compile(graph);
    // Wall-clock is the one legitimately nondeterministic field.
    result.compileSeconds = 0.0;
    BinaryWriter writer;
    result.writeBinary(writer);
    return writer.take();
}

/** First differing byte offset, or -1 when equal (for the message). */
s64
firstDifference(const std::string &a, const std::string &b)
{
    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return static_cast<s64>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<s64>(n);
}

/**
 * hexDigest(fnv1a64(...)) of each cell's serialized fast plan, keyed
 * "chip/workload/compiler". An intended plan change regenerates the
 * table from the failure messages and is recorded in CHANGES.md.
 */
const std::pair<const char *, const char *> kGoldenDigests[] = {
    {"dynaplasia/bert-base-prefill/cim-mlc", "40db402bcf06f14b"},
    {"dynaplasia/bert-base-prefill/cmswitch", "fc9ae2d515ecbe81"},
    {"dynaplasia/bert-base-prefill/occ", "abb5e82e59885883"},
    {"dynaplasia/bert-base-prefill/puma", "a6f1c829f9337ea7"},
    {"dynaplasia/mobilenetv2/cim-mlc", "fbb5cf73625f8f0d"},
    {"dynaplasia/mobilenetv2/cmswitch", "e135d5ca16f9519a"},
    {"dynaplasia/mobilenetv2/occ", "e4f1d58e5b89c90f"},
    {"dynaplasia/mobilenetv2/puma", "b7f8f88441aa3ffe"},
    {"dynaplasia/opt-6.7b-decode/cim-mlc", "189cf74a63d57f7c"},
    {"dynaplasia/opt-6.7b-decode/cmswitch", "f0ebcfc79401e92f"},
    {"dynaplasia/opt-6.7b-decode/occ", "e1fc65bae525362d"},
    {"dynaplasia/opt-6.7b-decode/puma", "6c6f84c10cb750e9"},
    {"dynaplasia/resnet18/cim-mlc", "6a3c4798df14e647"},
    {"dynaplasia/resnet18/cmswitch", "883c420e6332ecc6"},
    {"dynaplasia/resnet18/occ", "b95ff8411fe09252"},
    {"dynaplasia/resnet18/puma", "e40876aed8901867"},
    {"prime/bert-base-prefill/cim-mlc", "dd11b41b093e336a"},
    {"prime/bert-base-prefill/cmswitch", "dd11b41b093e336a"},
    {"prime/bert-base-prefill/occ", "d093a6164c927acf"},
    {"prime/bert-base-prefill/puma", "79d47ce15b5a59fb"},
    {"prime/mobilenetv2/cim-mlc", "61436b67f984c513"},
    {"prime/mobilenetv2/cmswitch", "060cc6241c94fd99"},
    {"prime/mobilenetv2/occ", "41c79eb30822b488"},
    {"prime/mobilenetv2/puma", "7d664db8056e2052"},
    {"prime/opt-6.7b-decode/cim-mlc", "8ef41c7c69eec0b8"},
    {"prime/opt-6.7b-decode/cmswitch", "f5a231b0663bd4ab"},
    {"prime/opt-6.7b-decode/occ", "cc814c0ac553824e"},
    {"prime/opt-6.7b-decode/puma", "01d2ca9040885114"},
    {"prime/resnet18/cim-mlc", "7890f3d9e3e6e085"},
    {"prime/resnet18/cmswitch", "dde8dc0b44001975"},
    {"prime/resnet18/occ", "529cf1f201e3b060"},
    {"prime/resnet18/puma", "33181b7c6c41065e"},
    {"tiny/bert-base-prefill/cim-mlc", "7de51df2def62425"},
    {"tiny/bert-base-prefill/cmswitch", "7de51df2def62425"},
    {"tiny/bert-base-prefill/occ", "cb1e336064cd6e4b"},
    {"tiny/bert-base-prefill/puma", "50a1a2439ad3532b"},
    {"tiny/mobilenetv2/cim-mlc", "c12b03fd0b4eb262"},
    {"tiny/mobilenetv2/cmswitch", "de7a7c50dc8bbc1b"},
    {"tiny/mobilenetv2/occ", "78f79eb0fcf4f9f5"},
    {"tiny/mobilenetv2/puma", "d32e07a370e48004"},
    {"tiny/opt-6.7b-decode/cim-mlc", "76a82ffc960e28ef"},
    {"tiny/opt-6.7b-decode/cmswitch", "8568e9e7d95d9ba6"},
    {"tiny/opt-6.7b-decode/occ", "cd5dd9cd1550497a"},
    {"tiny/opt-6.7b-decode/puma", "27df46f76d848639"},
    {"tiny/resnet18/cim-mlc", "1c3c04e45f6e90ec"},
    {"tiny/resnet18/cmswitch", "2b5e8053aed00dc6"},
    {"tiny/resnet18/occ", "637863c2ddb118b9"},
    {"tiny/resnet18/puma", "bdec18144fc0a1e9"},
};

/** The committed digest of a cell, or "" when the table lacks it. */
std::string
goldenDigest(const std::string &cell)
{
    for (const auto &[key, digest] : kGoldenDigests) {
        if (cell == key)
            return digest;
    }
    return "";
}

class SearchDiff
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::string>>
{
};

TEST_P(SearchDiff, FastAndReferenceSearchProduceIdenticalPlans)
{
    const auto &[chip_name, workload_name, compiler_name] = GetParam();
    ChipConfig chip = testing::scenarioChip(chip_name);
    Graph graph = testing::scenarioWorkload(workload_name);

    auto fast = makeCompilerByName(compiler_name, chip);
    auto reference = makeCompilerByName(compiler_name, chip,
                                        /*referenceSearch=*/true);

    std::string fast_bytes = serializedPlan(*fast, graph);
    std::string reference_bytes = serializedPlan(*reference, graph);

    EXPECT_EQ(fast_bytes.size(), reference_bytes.size());
    EXPECT_TRUE(fast_bytes == reference_bytes)
        << compiler_name << " on " << workload_name << "@" << chip_name
        << ": serialized plans diverge at byte "
        << firstDifference(fast_bytes, reference_bytes) << " of "
        << fast_bytes.size();

    // Golden digest: the plan this build emits is the plan every other
    // build (compiler, standard library, optimisation level) emits.
    const std::string cell =
        chip_name + "/" + workload_name + "/" + compiler_name;
    const std::string digest = hexDigest(fnv1a64(fast_bytes));
    EXPECT_EQ(digest, goldenDigest(cell))
        << cell << ": the plan bytes no longer match the committed digest."
        << " If the plan change is intended, replace this cell's row of"
        << " kGoldenDigests in tests/segmenter_diff_test.cpp with\n    {\""
        << cell << "\", \"" << digest << "\"},\n"
        << "(run `ctest -R SearchDiff --output-on-failure` for every"
        << " row) and record the plan change in CHANGES.md.";

    // Observability sweep: a compile of the fast search with metrics +
    // tracing installed must still produce the fast plan byte for
    // byte. This is the --trace/--metrics "observe, never steer"
    // contract.
    {
        obs::MetricsRegistry registry;
        obs::TraceRecorder recorder;
        obs::install(&registry, &recorder);
        auto observed = makeCompilerByName(compiler_name, chip);
        std::string observed_bytes = serializedPlan(*observed, graph);
        obs::uninstall();
        EXPECT_TRUE(observed_bytes == fast_bytes)
            << compiler_name << " on " << workload_name << "@" << chip_name
            << " with observability installed: serialized plans diverge "
            << "at byte " << firstDifference(observed_bytes, fast_bytes)
            << " of " << fast_bytes.size();
        EXPECT_GT(recorder.eventCount(), 0);
        EXPECT_GT(registry.histogram(obs::Hist::kPhaseSegment).count(), 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SearchDiff,
    ::testing::Combine(::testing::ValuesIn(testing::scenarioChipNames()),
                       ::testing::ValuesIn(testing::scenarioWorkloadNames()),
                       ::testing::ValuesIn(testing::scenarioCompilerNames())),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_"
                         + std::get<1>(info.param) + "_"
                         + std::get<2>(info.param);
        for (char &c : name) {
            if (c == '-' || c == '.')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace cmswitch
