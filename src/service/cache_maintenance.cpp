#include "service/cache_maintenance.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string_view>
#include <system_error>

#include "service/artifact_io.hpp"
#include "service/plan_fingerprint.hpp"
#include "service/stats_sidecar.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace cmswitch {

namespace fs = std::filesystem;

namespace {

constexpr const char kPlanSuffix[] = ".plan";

/** Temp files older than this are orphans of crashed writers: a live
 *  writer holds its temp for milliseconds between write and rename. */
constexpr s64 kStaleTempSeconds = 600;

struct PlanEntry
{
    std::string file; ///< name within the cache directory
    s64 bytes = 0;
    fs::file_time_type mtime;
};

void
requireCacheDirectory(const std::string &directory)
{
    cmswitch_fatal_if(directory.empty(), "cache directory must not be empty");
    cmswitch_fatal_if(!fs::is_directory(directory), "cache path ", directory,
                      " is not a directory");
}

s64
ageSeconds(fs::file_time_type mtime, fs::file_time_type now)
{
    return std::chrono::duration_cast<std::chrono::seconds>(now - mtime)
        .count();
}

/**
 * One directory walk shared by gc/verify/stats: collects `*.plan`
 * artifacts sorted oldest-mtime-first (file name as tie-break, so the
 * order is deterministic when mtimes collide) and, when @p reap_temps,
 * deletes orphaned `*.tmp.*` files, counting them in @p stale_temps.
 * A walk error midway ends the scan and is reported in @p walk_error —
 * callers surface it so a partial scan is never mistaken for a clean
 * full one.
 */
std::vector<PlanEntry>
scanPlanFiles(const std::string &directory, bool reap_temps,
              s64 *stale_temps, std::string *walk_error)
{
    std::vector<PlanEntry> entries;
    fs::file_time_type now = fs::file_time_type::clock::now();
    // The non-throwing iteration overloads throughout: an unreadable
    // directory is a clean fatal (user error), and a walk error midway
    // (the directory deleted under us) ends the scan instead of
    // escaping as an uncaught filesystem_error.
    std::error_code walk_ec;
    fs::directory_iterator it(directory, walk_ec);
    cmswitch_fatal_if(walk_ec, "cannot read cache directory ", directory,
                      ": ", walk_ec.message());
    for (; !walk_ec && it != fs::directory_iterator();
         it.increment(walk_ec)) {
        const fs::directory_entry &entry = *it;
        std::error_code ec;
        if (!entry.is_regular_file(ec) || ec)
            continue;
        std::string name = entry.path().filename().string();
        if (std::string_view(name).ends_with(kPlanSuffix)) {
            PlanEntry plan;
            plan.file = name;
            plan.bytes = static_cast<s64>(entry.file_size(ec));
            if (ec)
                continue; // deleted under us: a concurrent gc's race win
            plan.mtime = entry.last_write_time(ec);
            if (ec)
                continue;
            entries.push_back(std::move(plan));
        } else if (reap_temps && name.find(".tmp.") != std::string::npos) {
            fs::file_time_type mtime = entry.last_write_time(ec);
            if (ec || ageSeconds(mtime, now) <= kStaleTempSeconds)
                continue; // fresh temp: a live writer owns it
            fs::remove(entry.path(), ec);
            if (!ec && stale_temps)
                ++*stale_temps;
        }
        // Everything else (the stats sidecar, stray files) is not ours
        // to manage: gc only reaps plan artifacts and orphaned temps.
    }
    if (walk_ec) {
        warn("cache directory walk of ", directory, " ended early: ",
             walk_ec.message());
        *walk_error = walk_ec.message();
    }
    std::sort(entries.begin(), entries.end(),
              [](const PlanEntry &a, const PlanEntry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.file < b.file;
              });
    return entries;
}

} // namespace

void
CacheGcReport::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .field("schema", "cmswitch-cache-gc-v1")
        .field("dir", directory)
        .field("scanned_files", scannedFiles)
        .field("scanned_bytes", scannedBytes)
        .field("deleted_files", deletedFiles)
        .field("deleted_bytes", deletedBytes)
        .field("kept_files", keptFiles)
        .field("kept_bytes", keptBytes)
        .field("stale_temp_files", staleTempFiles)
        .field("walk_error", walkError);
    w.key("deleted").beginArray();
    for (const CacheGcDeletion &d : deleted) {
        w.beginObject()
            .field("file", d.file)
            .field("bytes", d.bytes)
            .field("reason", d.reason)
            .endObject();
    }
    w.endArray().endObject();
}

CacheGcReport
gcPlanCache(const CacheGcOptions &options)
{
    requireCacheDirectory(options.directory);
    CacheGcReport report;
    report.directory = options.directory;

    std::vector<PlanEntry> plans =
        scanPlanFiles(options.directory, /*reap_temps=*/true,
                      &report.staleTempFiles, &report.walkError);
    for (const PlanEntry &plan : plans) {
        ++report.scannedFiles;
        report.scannedBytes += plan.bytes;
    }

    fs::file_time_type now = fs::file_time_type::clock::now();
    // Why each file is doomed (nullptr = kept); the deletion loop
    // reports exactly the reason that marked it.
    std::vector<const char *> doom(plans.size(), nullptr);

    // Pass 1: age expiry. Runs first so expired plans never occupy the
    // byte budget.
    if (options.maxAgeSeconds >= 0) {
        for (std::size_t i = 0; i < plans.size(); ++i) {
            if (ageSeconds(plans[i].mtime, now) > options.maxAgeSeconds)
                doom[i] = "expired";
        }
    }

    // Pass 2: LRU byte budget over the survivors. plans is sorted
    // oldest-first, so deleting from the front IS least-recently-used
    // order (DiskPlanCache touches a plan's mtime on every hit).
    if (options.maxBytes >= 0) {
        s64 live_bytes = 0;
        for (std::size_t i = 0; i < plans.size(); ++i)
            if (!doom[i])
                live_bytes += plans[i].bytes;
        for (std::size_t i = 0; i < plans.size() && live_bytes > options.maxBytes;
             ++i) {
            if (doom[i])
                continue;
            doom[i] = "evicted";
            live_bytes -= plans[i].bytes;
        }
    }

    for (std::size_t i = 0; i < plans.size(); ++i) {
        const PlanEntry &plan = plans[i];
        if (!doom[i]) {
            ++report.keptFiles;
            report.keptBytes += plan.bytes;
            continue;
        }
        std::error_code ec;
        fs::remove(fs::path(options.directory) / plan.file, ec);
        if (ec) {
            warn("cache gc: cannot delete ", plan.file, ": ", ec.message());
            ++report.keptFiles;
            report.keptBytes += plan.bytes;
            continue;
        }
        ++report.deletedFiles;
        report.deletedBytes += plan.bytes;
        report.deleted.push_back({plan.file, plan.bytes, doom[i]});
    }
    return report;
}

void
CacheVerifyReport::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .field("schema", "cmswitch-cache-verify-v1")
        .field("dir", directory)
        .field("scanned_files", scannedFiles)
        .field("valid_files", validFiles)
        .field("damaged_files", damagedFiles)
        .field("removed_files", removedFiles)
        .field("walk_error", walkError)
        .field("clean", clean());
    w.key("damaged").beginArray();
    for (const CacheVerifyDamage &d : damaged) {
        w.beginObject()
            .field("file", d.file)
            .field("reason", d.reason)
            .field("removed", d.removed)
            .endObject();
    }
    w.endArray().endObject();
}

CacheVerifyReport
verifyPlanCache(const CacheVerifyOptions &options)
{
    requireCacheDirectory(options.directory);
    CacheVerifyReport report;
    report.directory = options.directory;

    for (const PlanEntry &plan :
         scanPlanFiles(options.directory, /*reap_temps=*/false, nullptr,
                       &report.walkError)) {
        ++report.scannedFiles;
        fs::path path = fs::path(options.directory) / plan.file;

        // The same protocol a DiskPlanCache::load runs (artifact_io's
        // readPlanFile): a file verify accepts is a file a load serves.
        std::string stem = plan.file.substr(
            0, plan.file.size() - (sizeof(kPlanSuffix) - 1));
        std::string reason;
        bool missing = false;
        ArtifactPtr artifact =
            readPlanFile(path.string(), stem, &reason, &missing);
        if (missing) {
            // Deleted between the scan and the read (a concurrent gc):
            // not ours to judge — a load would see a plain miss.
            --report.scannedFiles;
            continue;
        }
        if (artifact) {
            ++report.validFiles;
            continue;
        }
        ++report.damagedFiles;
        CacheVerifyDamage damage{plan.file, reason, false};
        if (options.removeDamaged) {
            std::error_code ec;
            fs::remove(path, ec);
            if (ec) {
                warn("cache verify: cannot delete ", plan.file, ": ",
                     ec.message());
            } else {
                damage.removed = true;
                ++report.removedFiles;
            }
        }
        report.damaged.push_back(std::move(damage));
    }
    return report;
}

void
CacheStatsReport::writeJson(JsonWriter &w) const
{
    // Distinct from the *sidecar's* envelope tag (cmswitch-cache-stats-v2,
    // a binary format): this is the JSON report, versioned independently.
    w.beginObject()
        .field("schema", "cmswitch-cache-stats-report-v3")
        .field("dir", directory)
        .field("sidecar_present", sidecarPresent)
        .field("hits", totals.hits)
        .field("misses", totals.misses)
        .field("stores", totals.stores)
        .field("rejected", totals.rejected)
        .field("touch_failed", totals.touchFailed)
        .field("plan_files", planFiles)
        .field("plan_bytes", planBytes)
        .field("walk_error", walkError)
        .field("fingerprint", fingerprint)
        .endObject();
}

CacheStatsReport
statsPlanCache(const std::string &directory)
{
    requireCacheDirectory(directory);
    CacheStatsReport report;
    report.directory = directory;
    report.totals = readStatsSidecar(directory, &report.sidecarPresent);
    for (const PlanEntry &plan :
         scanPlanFiles(directory, /*reap_temps=*/false, nullptr,
                       &report.walkError)) {
        ++report.planFiles;
        report.planBytes += plan.bytes;
    }
    report.fingerprint = buildFingerprintHex();
    return report;
}

} // namespace cmswitch
