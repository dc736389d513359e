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
 */

#include <gtest/gtest.h>

#include <tuple>

#include "obs/obs.hpp"
#include "scenario_util.hpp"
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
