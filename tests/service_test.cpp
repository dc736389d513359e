/**
 * @file
 * Tests for the compilation service: plan-cache hit/miss/eviction and
 * single-flight semantics, request-key canonicalisation, and the
 * thread-pooled CompileService over small workloads. The full
 * scenario-matrix determinism sweep lives in
 * service_determinism_test.cpp (e2e label).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "service/compile_service.hpp"
#include "service/json_report.hpp"
#include "test_util.hpp"

namespace cmswitch {
namespace {

ArtifactPtr
dummyArtifact(const std::string &key)
{
    auto artifact = std::make_shared<CompileArtifact>();
    artifact->key = key;
    return artifact;
}

TEST(PlanCache, MissThenHitSharesOneArtifact)
{
    PlanCache cache(8);
    s64 computes = 0;
    auto compute = [&] {
        ++computes;
        return dummyArtifact("k1");
    };
    ArtifactPtr first = cache.getOrCompute("k1", compute);
    ArtifactPtr second = cache.getOrCompute("k1", compute);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(first.get(), second.get());
    PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.evictions, 0);
    EXPECT_EQ(cache.size(), 1);
}

TEST(PlanCache, DistinctKeysComputeSeparately)
{
    PlanCache cache(8);
    cache.getOrCompute("a", [] { return dummyArtifact("a"); });
    cache.getOrCompute("b", [] { return dummyArtifact("b"); });
    PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(cache.size(), 2);
}

TEST(PlanCache, EvictsLeastRecentlyUsedAtCapacity)
{
    PlanCache cache(2);
    cache.getOrCompute("a", [] { return dummyArtifact("a"); });
    cache.getOrCompute("b", [] { return dummyArtifact("b"); });
    cache.getOrCompute("a", [] { return dummyArtifact("a"); }); // a is MRU
    cache.getOrCompute("c", [] { return dummyArtifact("c"); }); // evicts b

    s64 recomputes = 0;
    cache.getOrCompute("a", [&] {
        ++recomputes;
        return dummyArtifact("a");
    });
    cache.getOrCompute("b", [&] {
        ++recomputes;
        return dummyArtifact("b");
    });
    EXPECT_EQ(recomputes, 1) << "a must survive, b must be evicted";
    EXPECT_EQ(cache.stats().evictions, 2) << "b evicted by c, c by b";
    EXPECT_EQ(cache.size(), 2);
}

TEST(PlanCache, SingleFlightJoinsConcurrentRequests)
{
    PlanCache cache(8);
    std::atomic<s64> computes{0};
    std::atomic<bool> release{false};

    auto slowCompute = [&] {
        ++computes;
        while (!release.load())
            std::this_thread::yield();
        return dummyArtifact("slow");
    };

    std::vector<std::thread> threads;
    std::vector<ArtifactPtr> results(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            results[static_cast<std::size_t>(t)] =
                cache.getOrCompute("slow", slowCompute);
        });
    }
    // Give every thread a chance to reach the cache, then release the
    // single owner; all four must share its artifact.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release = true;
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(computes.load(), 1) << "only one in-flight compute per key";
    for (const ArtifactPtr &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r.get(), results[0].get());
    }
    PlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, 3);
}

TEST(PlanCache, ThrowingComputeRetriesLater)
{
    PlanCache cache(8);
    EXPECT_THROW(cache.getOrCompute(
                     "bad", []() -> ArtifactPtr {
                         throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The failed entry must not poison the key.
    ArtifactPtr ok = cache.getOrCompute("bad",
                                        [] { return dummyArtifact("bad"); });
    EXPECT_NE(ok, nullptr);
    EXPECT_EQ(cache.stats().misses, 2);
}

TEST(RequestKey, IdenticalContentIdenticalKey)
{
    CompileRequest a;
    a.chip = testing::tinyChip(8);
    a.workload = testing::chainMlp(2);
    CompileRequest b = a;
    EXPECT_EQ(requestKey(a), requestKey(b));
    EXPECT_EQ(requestKey(a).size(), 16u);
}

TEST(RequestKey, EveryComponentChangesTheKey)
{
    CompileRequest base;
    base.chip = testing::tinyChip(8);
    base.workload = testing::chainMlp(2);

    CompileRequest chip = base;
    chip.chip.numSwitchArrays = 9;
    EXPECT_NE(requestKey(base), requestKey(chip));

    CompileRequest workload = base;
    workload.workload = testing::chainMlp(3);
    EXPECT_NE(requestKey(base), requestKey(workload));

    CompileRequest compiler = base;
    compiler.compilerId = "puma";
    EXPECT_NE(requestKey(base), requestKey(compiler));

    CompileRequest optimize = base;
    optimize.optimize = true;
    EXPECT_NE(requestKey(base), requestKey(optimize));
}

TEST(CompileArtifactFn, CompilesValidatesAndPrices)
{
    CompileRequest request;
    request.chip = testing::tinyChip(8);
    request.workload = testing::chainMlp(2);
    ArtifactPtr artifact = compileArtifact(request);
    ASSERT_NE(artifact, nullptr);
    EXPECT_EQ(artifact->key, requestKey(request));
    EXPECT_TRUE(artifact->validation.ok())
        << artifact->validation.summary();
    EXPECT_GT(artifact->result.totalCycles(), 0);
    EXPECT_GT(artifact->energy.totalPj(), 0.0);
}

TEST(CompileService, SubmitDeduplicatesIdenticalRequests)
{
    CompileService service({.threads = 4, .cacheCapacity = 16, .cacheDir = ""});
    CompileRequest request;
    request.chip = testing::tinyChip(8);
    request.workload = testing::chainMlp(2);

    std::vector<std::future<ArtifactPtr>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(service.submit(request));
    std::vector<ArtifactPtr> artifacts;
    for (auto &f : futures)
        artifacts.push_back(f.get());

    for (const ArtifactPtr &a : artifacts)
        EXPECT_EQ(a.get(), artifacts[0].get()) << "plans must be shared";

    CompileServiceStats stats = service.stats();
    EXPECT_EQ(stats.requests, 8);
    EXPECT_EQ(stats.cache.misses, 1);
    EXPECT_EQ(stats.cache.hits, 7);
}

TEST(CompileService, MixedRequestsAllCompile)
{
    CompileService service({.threads = 3, .cacheCapacity = 16, .cacheDir = ""});
    std::vector<std::future<ArtifactPtr>> futures;
    for (s64 n = 1; n <= 4; ++n) {
        CompileRequest request;
        request.chip = testing::tinyChip(8);
        request.workload = testing::chainMlp(n);
        futures.push_back(service.submit(request));
        futures.push_back(service.submit(std::move(request))); // duplicate
    }
    s64 distinct_cycles = 0;
    std::set<Cycles> seen;
    for (auto &f : futures) {
        ArtifactPtr a = f.get();
        ASSERT_NE(a, nullptr);
        EXPECT_TRUE(a->validation.ok());
        if (seen.insert(a->result.totalCycles()).second)
            ++distinct_cycles;
    }
    EXPECT_EQ(service.stats().cache.misses, 4);
    EXPECT_EQ(service.stats().cache.hits, 4);
    EXPECT_GE(distinct_cycles, 2) << "different graphs, different plans";
}

TEST(CompileService, RejectsInvalidOptionsAtConstruction)
{
    // Regression: every service knob is validated fatally up front —
    // a zero/negative pool or cache capacity must never reach the
    // worker spawn loop or the plan cache.
    // Braces: `CompileService(no_workers)` would declare a variable.
    CompileServiceOptions no_workers;
    no_workers.threads = 0;
    EXPECT_EXIT(CompileService{no_workers}, ::testing::ExitedWithCode(1),
                "worker thread");
    CompileServiceOptions no_cache;
    no_cache.cacheCapacity = 0;
    EXPECT_EXIT(CompileService{no_cache}, ::testing::ExitedWithCode(1),
                "cacheCapacity");
}

TEST(CompileService, CompileNowSharesCacheWithSubmit)
{
    CompileService service({.threads = 2, .cacheCapacity = 16, .cacheDir = ""});
    CompileRequest request;
    request.chip = testing::tinyChip(8);
    request.workload = testing::chainMlp(2);
    ArtifactPtr now = service.compileNow(request);
    ArtifactPtr later = service.submit(request).get();
    EXPECT_EQ(now.get(), later.get());
    EXPECT_EQ(service.stats().cache.misses, 1);
}

TEST(JsonReport, DeterministicAcrossEqualRequests)
{
    CompileRequest request;
    request.chip = testing::tinyChip(8);
    request.workload = testing::chainMlp(2);
    std::string first = renderCompileReport(*compileArtifact(request));
    std::string second = renderCompileReport(*compileArtifact(request));
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"schema\": \"cmswitch-compile-report-v2\""),
              std::string::npos);
    EXPECT_NE(first.find("\"valid\": true"), std::string::npos);
}

} // namespace
} // namespace cmswitch
