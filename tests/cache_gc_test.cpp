/**
 * @file
 * Unit gate for the cache lifecycle subsystem: gc LRU/byte-budget/age
 * semantics, verify's damage detection, the cross-process stats
 * sidecar, and the build/algorithm fingerprint.
 *
 * gc and stats operate on the *directory*, not on plan contents, so
 * most tests drive them with synthetic `*.plan` files of chosen sizes
 * and mtimes — no compiles, which keeps this suite tier1-fast. verify
 * does parse artifacts; it gets a real (default-constructed) artifact
 * through DiskPlanCache::store, which exercises the same
 * cmswitch-plan-v1 writer as production stores.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#ifdef __unix__
#include <unistd.h>
#endif

#include "service/cache_maintenance.hpp"
#include "service/compile_service.hpp"
#include "service/disk_plan_cache.hpp"
#include "service/plan_fingerprint.hpp"
#include "service/stats_sidecar.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/serialize.hpp"

namespace cmswitch {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under gtest's temp root, removed on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::path(::testing::TempDir())
                / ("cmswitch_" + tag + "_"
                   + std::to_string(
                         ::testing::UnitTest::GetInstance()->random_seed())
                   + "_"
                   + std::to_string(
                         reinterpret_cast<std::uintptr_t>(this))))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    std::string str() const { return path_.string(); }
    const fs::path &path() const { return path_; }

  private:
    fs::path path_;
};

/** Write @p bytes of filler to @p name and backdate its mtime. */
void
writeFakePlan(const ScratchDir &dir, const std::string &name, s64 bytes,
              std::chrono::seconds age)
{
    fs::path path = dir.path() / name;
    std::ofstream(path, std::ios::binary)
        << std::string(static_cast<std::size_t>(bytes), 'x');
    fs::last_write_time(path, fs::file_time_type::clock::now() - age);
}

using std::chrono::minutes;
using std::chrono::seconds;

TEST(CacheGc, EvictsOldestMtimeFirstDownToByteBudget)
{
    ScratchDir dir("gc_lru");
    writeFakePlan(dir, "aaaa.plan", 100, minutes(40)); // oldest
    writeFakePlan(dir, "bbbb.plan", 100, minutes(30));
    writeFakePlan(dir, "cccc.plan", 100, minutes(20));
    writeFakePlan(dir, "dddd.plan", 100, minutes(10)); // newest

    CacheGcReport report =
        gcPlanCache({.directory = dir.str(), .maxBytes = 250});

    EXPECT_EQ(report.scannedFiles, 4);
    EXPECT_EQ(report.scannedBytes, 400);
    EXPECT_EQ(report.deletedFiles, 2);
    EXPECT_EQ(report.deletedBytes, 200);
    EXPECT_EQ(report.keptFiles, 2);
    EXPECT_EQ(report.keptBytes, 200);

    // Provably LRU: the two *oldest* went, oldest first.
    ASSERT_EQ(report.deleted.size(), 2u);
    EXPECT_EQ(report.deleted[0].file, "aaaa.plan");
    EXPECT_EQ(report.deleted[1].file, "bbbb.plan");
    EXPECT_EQ(report.deleted[0].reason, "evicted");
    EXPECT_FALSE(fs::exists(dir.path() / "aaaa.plan"));
    EXPECT_FALSE(fs::exists(dir.path() / "bbbb.plan"));
    EXPECT_TRUE(fs::exists(dir.path() / "cccc.plan"));
    EXPECT_TRUE(fs::exists(dir.path() / "dddd.plan"));
}

TEST(CacheGc, MaxAgeExpiresBeforeTheByteBudget)
{
    ScratchDir dir("gc_age");
    writeFakePlan(dir, "old.plan", 100, minutes(120));
    writeFakePlan(dir, "new.plan", 100, seconds(30));

    CacheGcReport report = gcPlanCache(
        {.directory = dir.str(), .maxBytes = -1, .maxAgeSeconds = 3600});

    EXPECT_EQ(report.deletedFiles, 1);
    ASSERT_EQ(report.deleted.size(), 1u);
    EXPECT_EQ(report.deleted[0].file, "old.plan");
    EXPECT_EQ(report.deleted[0].reason, "expired");
    EXPECT_TRUE(fs::exists(dir.path() / "new.plan"));
}

TEST(CacheGc, NoBoundsDeletesNothing)
{
    ScratchDir dir("gc_nobounds");
    writeFakePlan(dir, "aaaa.plan", 100, minutes(40));
    CacheGcReport report = gcPlanCache({.directory = dir.str()});
    EXPECT_EQ(report.deletedFiles, 0);
    EXPECT_EQ(report.keptFiles, 1);
    EXPECT_TRUE(fs::exists(dir.path() / "aaaa.plan"));
}

TEST(CacheGc, NeverDeletesTheStatsSidecar)
{
    ScratchDir dir("gc_sidecar");
    DiskPlanCacheStats delta;
    delta.hits = 7;
    delta.stores = 3;
    mergeStatsSidecar(dir.str(), delta);
    writeFakePlan(dir, "aaaa.plan", 100, minutes(10));
    writeFakePlan(dir, "bbbb.plan", 100, minutes(5));

    CacheGcReport report =
        gcPlanCache({.directory = dir.str(), .maxBytes = 0});

    // Everything *.plan is gone, the sidecar and its totals survive.
    EXPECT_EQ(report.deletedFiles, 2);
    EXPECT_EQ(report.keptFiles, 0);
    EXPECT_TRUE(fs::exists(statsSidecarPath(dir.str())));
    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 7);
    EXPECT_EQ(totals.stores, 3);
}

TEST(CacheGc, ReapsOnlyStaleWriterTempFiles)
{
    ScratchDir dir("gc_temps");
    writeFakePlan(dir, "aaaa.plan.tmp.123.1", 50, minutes(60)); // orphan
    writeFakePlan(dir, "bbbb.plan.tmp.456.2", 50, seconds(1));  // live writer
    writeFakePlan(dir, "cccc.plan", 100, minutes(1));

    CacheGcReport report =
        gcPlanCache({.directory = dir.str(), .maxBytes = 1000});

    EXPECT_EQ(report.staleTempFiles, 1);
    EXPECT_FALSE(fs::exists(dir.path() / "aaaa.plan.tmp.123.1"));
    EXPECT_TRUE(fs::exists(dir.path() / "bbbb.plan.tmp.456.2"));
    // Temp files are not artifacts: they never count against the budget.
    EXPECT_EQ(report.scannedFiles, 1);
    EXPECT_EQ(report.deletedFiles, 0);
}

TEST(CacheVerify, FlagsCorruptionAndKeyMismatchAndOptionallyDeletes)
{
    ScratchDir dir("verify");
    const std::string key(16, '1');
    {
        auto artifact = std::make_shared<CompileArtifact>();
        artifact->key = key;
        DiskPlanCache cache(dir.str());
        cache.store(key, artifact);
    }
    // Damage one copy's bytes and alias another under a foreign key.
    std::ofstream(dir.path() / "deadbeefdeadbeef.plan", std::ios::binary)
        << "cmswitch-plan-v1\nnot really";
    fs::copy_file(dir.path() / (key + ".plan"),
                  dir.path() / (std::string(16, '2') + ".plan"));

    CacheVerifyReport report = verifyPlanCache({.directory = dir.str()});
    EXPECT_EQ(report.scannedFiles, 3);
    EXPECT_EQ(report.validFiles, 1);
    EXPECT_EQ(report.damagedFiles, 2);
    EXPECT_EQ(report.removedFiles, 0);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.damaged.size(), 2u);
    for (const CacheVerifyDamage &damage : report.damaged)
        EXPECT_FALSE(damage.reason.empty());
    // Reporting alone must not delete anything.
    EXPECT_TRUE(fs::exists(dir.path() / "deadbeefdeadbeef.plan"));

    CacheVerifyReport removal =
        verifyPlanCache({.directory = dir.str(), .removeDamaged = true});
    EXPECT_EQ(removal.damagedFiles, 2);
    EXPECT_EQ(removal.removedFiles, 2);
    EXPECT_TRUE(removal.clean());
    EXPECT_FALSE(fs::exists(dir.path() / "deadbeefdeadbeef.plan"));
    EXPECT_FALSE(fs::exists(dir.path() / (std::string(16, '2') + ".plan")));
    EXPECT_TRUE(fs::exists(dir.path() / (key + ".plan")));
}

TEST(DiskCacheTouch, ReadOnlyDirectoryStillServesHits)
{
    // gc's LRU wants every hit to refresh the plan's mtime, but a
    // read-only cache directory (e.g. a shared CI artifact mount) must
    // stay a working cache: the hit serves, whatever happens to the
    // touch. The owner can still update timestamps of its own file, so
    // this pins the serve-anyway behaviour; the privilege-dropping test
    // below forces the touch to actually fail.
    ScratchDir dir("touch_readonly");
    const std::string key(16, '4');
    DiskPlanCache cache(dir.str());
    auto artifact = std::make_shared<CompileArtifact>();
    artifact->key = key;
    cache.store(key, artifact);

    fs::permissions(dir.path(), fs::perms::owner_read | fs::perms::owner_exec
                                    | fs::perms::group_read
                                    | fs::perms::group_exec
                                    | fs::perms::others_read
                                    | fs::perms::others_exec);
    ArtifactPtr hit = cache.load(key);
    fs::permissions(dir.path(), fs::perms::owner_all);

    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->key, key);
    DiskPlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.rejected, 0);
}

#ifdef __unix__
TEST(DiskCacheTouch, FailedMtimeRefreshCountsAndStillServes)
{
    // utimensat with explicit timestamps needs file ownership or write
    // access, so a genuine touch failure requires dropping privileges:
    // root stores a read-only plan, then loads it as an unprivileged
    // euid. Skipped when not root (CI test users cannot chown/seteuid);
    // the read-only-directory test above still runs there.
    if (geteuid() != 0)
        GTEST_SKIP() << "needs root to drop privileges for a failing touch";

    ScratchDir dir("touch_failed");
    const std::string key(16, '5');
    DiskPlanCache cache(dir.str());
    auto artifact = std::make_shared<CompileArtifact>();
    artifact->key = key;
    cache.store(key, artifact);

    const fs::perms read_only = fs::perms::owner_read | fs::perms::group_read
                              | fs::perms::others_read;
    fs::permissions(cache.planPath(key), read_only);
    fs::permissions(dir.path(), read_only | fs::perms::owner_exec
                                    | fs::perms::group_exec
                                    | fs::perms::others_exec);

    ASSERT_EQ(seteuid(65534), 0); // nobody: can read, cannot touch
    ArtifactPtr hit = cache.load(key);
    EXPECT_EQ(seteuid(0), 0);
    fs::permissions(dir.path(), fs::perms::owner_all);

    ASSERT_NE(hit, nullptr) << "a failed touch must not drop the hit";
    EXPECT_EQ(hit->key, key);
    DiskPlanCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.touchFailed, 1);
    EXPECT_EQ(stats.rejected, 0);

    // A touchable plan keeps the counter still.
    ArtifactPtr again = cache.load(key);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(cache.stats().touchFailed, 1);
}
#endif

TEST(StatsSidecar, AccumulatesAcrossCacheInstances)
{
    ScratchDir dir("sidecar_accumulate");
    const std::string key(16, '3');
    {
        // "Process" 1: one miss, one store; destructor flushes.
        DiskPlanCache first(dir.str());
        EXPECT_EQ(first.load(key), nullptr);
        auto artifact = std::make_shared<CompileArtifact>();
        artifact->key = key;
        first.store(key, artifact);
    }
    {
        // "Process" 2: one hit. An explicit flush returns the merged
        // lifetime totals; the destructor's second flush adds nothing.
        DiskPlanCache second(dir.str());
        EXPECT_NE(second.load(key), nullptr);
        DiskPlanCacheStats totals = second.flushSidecar();
        EXPECT_EQ(totals.hits, 1);
        EXPECT_EQ(totals.misses, 1);
        EXPECT_EQ(totals.stores, 1);
        EXPECT_EQ(totals.rejected, 0);
    }
    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 1);
    EXPECT_EQ(totals.misses, 1);
    EXPECT_EQ(totals.stores, 1);

    CacheStatsReport report = statsPlanCache(dir.str());
    EXPECT_TRUE(report.sidecarPresent);
    EXPECT_EQ(report.totals.hits, 1);
    EXPECT_EQ(report.planFiles, 1);
    EXPECT_GT(report.planBytes, 0);
    EXPECT_EQ(report.fingerprint, buildFingerprintHex());
}

TEST(StatsSidecar, DamagedSidecarReadsAsZeroAndIsRewritten)
{
    // Garbage, and the layouts older builds wrote: v1 (four totals) and
    // v3 (eight). v2 is the one live layout, so each reads as absent
    // and the next merge overwrites it — the plan-file policy.
    auto image = [](const char *tag, int totals) {
        BinaryWriter payload;
        for (int i = 0; i < totals; ++i)
            payload.writeS64(10 + i);
        return wrapEnvelope(tag, payload.bytes());
    };
    const std::string inputs[] = {
        "garbage, not an envelope",
        image("cmswitch-cache-stats-v1\n", 4),
        image("cmswitch-cache-stats-v3\n", 8),
    };
    for (const std::string &input : inputs) {
        SCOPED_TRACE(input.substr(0, 24));
        ScratchDir dir("sidecar_damaged");
        std::ofstream(statsSidecarPath(dir.str()), std::ios::binary)
            << input;
        bool present = true;
        DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
        EXPECT_FALSE(present);
        EXPECT_EQ(totals.hits + totals.misses + totals.stores
                      + totals.rejected + totals.touchFailed,
                  0);

        DiskPlanCacheStats delta;
        delta.hits = 5;
        mergeStatsSidecar(dir.str(), delta);
        totals = readStatsSidecar(dir.str(), &present);
        EXPECT_TRUE(present);
        EXPECT_EQ(totals.hits, 5);
        EXPECT_EQ(totals.rejected, 0);

        std::string data;
        ASSERT_TRUE(readFileBytes(statsSidecarPath(dir.str()), &data));
        std::string_view rewritten;
        std::string error;
        EXPECT_TRUE(
            unwrapEnvelope(kStatsSidecarTag, data, &rewritten, &error))
            << error;
    }
}

TEST(StatsSidecar, V2RoundtripsTouchFailed)
{
    ScratchDir dir("sidecar_v2");
    DiskPlanCacheStats delta;
    delta.hits = 2;
    delta.touchFailed = 3;
    mergeStatsSidecar(dir.str(), delta);

    bool present = false;
    DiskPlanCacheStats totals = readStatsSidecar(dir.str(), &present);
    EXPECT_TRUE(present);
    EXPECT_EQ(totals.hits, 2);
    EXPECT_EQ(totals.touchFailed, 3);

    // Merges accumulate the fifth counter like the first four.
    DiskPlanCacheStats more;
    more.touchFailed = 4;
    totals = mergeStatsSidecar(dir.str(), more);
    EXPECT_EQ(totals.touchFailed, 7);

    // And `cache stats` surfaces it in the JSON report.
    CacheStatsReport report = statsPlanCache(dir.str());
    JsonWriter w;
    report.writeJson(w);
    EXPECT_NE(w.str().find("\"touch_failed\": 7"), std::string::npos)
        << w.str();
}

TEST(PlanFingerprint, RevisionBumpChangesAndRevertRestoresTheDigest)
{
    const std::string original = buildFingerprintHex();
    bumpAlgorithmRevisionForTesting("segmenter", 1);
    const std::string bumped = buildFingerprintHex();
    EXPECT_NE(bumped, original);
    // A different pass's bump lands on a different digest again.
    bumpAlgorithmRevisionForTesting("allocator", 1);
    EXPECT_NE(buildFingerprintHex(), bumped);
    bumpAlgorithmRevisionForTesting("allocator", -1);
    bumpAlgorithmRevisionForTesting("segmenter", -1);
    EXPECT_EQ(buildFingerprintHex(), original);
}

TEST(PlanFingerprint, RevisionTableCoversTheCompilerPasses)
{
    // The table is the maintenance surface: losing a row silently
    // weakens invalidation, so pin the passes that must stay covered.
    const std::vector<AlgorithmRevision> &table = algorithmRevisions();
    auto has = [&table](const std::string &pass) {
        for (const AlgorithmRevision &entry : table)
            if (pass == entry.pass)
                return true;
        return false;
    };
    for (const char *pass :
         {"frontend-passes", "partitioner", "segmenter", "allocator",
          "codegen", "cost-model", "baselines", "energy-model"})
        EXPECT_TRUE(has(pass)) << pass;
    for (const AlgorithmRevision &entry : table)
        EXPECT_GE(entry.revision, 1) << entry.pass;
}

TEST(CacheReports, JsonDocumentsCarryTheirSchemas)
{
    ScratchDir dir("report_json");
    writeFakePlan(dir, "aaaa.plan", 10, minutes(1));

    JsonWriter gc_doc;
    gcPlanCache({.directory = dir.str(), .maxBytes = 1000}).writeJson(gc_doc);
    EXPECT_NE(gc_doc.str().find("cmswitch-cache-gc-v1"), std::string::npos);

    JsonWriter stats_doc;
    statsPlanCache(dir.str()).writeJson(stats_doc);
    EXPECT_NE(stats_doc.str().find("cmswitch-cache-stats-report-v3"),
              std::string::npos);

    JsonWriter verify_doc;
    verifyPlanCache({.directory = dir.str()}).writeJson(verify_doc);
    EXPECT_NE(verify_doc.str().find("cmswitch-cache-verify-v1"),
              std::string::npos);
}

} // namespace
} // namespace cmswitch
