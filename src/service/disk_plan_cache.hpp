/**
 * @file
 * Persistent, cross-process plan cache: one `<requestKey>.plan` file
 * per compiled artifact in a user-chosen directory, in the versioned
 * cmswitch-plan-v1 format (service/artifact_io.hpp).
 *
 * Sits *under* the in-memory PlanCache: the compile service looks up
 * memory -> disk -> compile, so separate `cmswitchc` runs, batch jobs
 * and CI stages share plans through the filesystem.
 *
 * Concurrency model: many processes may read and write one cache
 * directory at once. Writes go to a process-unique temporary file and
 * are published with an atomic rename, so a reader never observes a
 * torn artifact — it sees either the old file, the new file, or no
 * file. Losing a store() race is harmless: racing writers of one key
 * publish *equivalent* plans (same request, same schedule, identical
 * JSON report) though not byte-identical files — the serialized
 * artifact embeds the wall-clock compileSeconds of whichever compile
 * produced it. Do not build file-digest dedup or plan-file equality
 * checks on top of this; compare reports, not plan files.
 *
 * Robustness: artifacts whose format tag, length, digest, payload, or
 * embedded request key do not check out are treated as misses (counted
 * as `rejected`) and the request recompiles — a stale or corrupt cache
 * can cost time, never correctness.
 */

#ifndef CMSWITCH_SERVICE_DISK_PLAN_CACHE_HPP
#define CMSWITCH_SERVICE_DISK_PLAN_CACHE_HPP

#include <functional>
#include <mutex>
#include <string>

#include "service/plan_cache.hpp"

namespace cmswitch {

class JsonWriter;

/** Monotonic counters; snapshot via DiskPlanCache::stats(). */
struct DiskPlanCacheStats
{
    s64 hits = 0;     ///< artifacts served from disk
    s64 misses = 0;   ///< keys with no plan file
    s64 stores = 0;   ///< artifacts written (and published) to disk
    s64 rejected = 0; ///< corrupt / truncated / wrong-version / wrong-key
                      ///< files ignored (each also counts as a miss)
    s64 touchFailed = 0; ///< hits whose LRU mtime refresh failed (e.g. a
                         ///< read-only cache dir); the hit still serves.
                         ///< Persisted in the sidecar alongside the
                         ///< four totals above

    /** Emit {"disk_hits", ...} fields into the currently open object. */
    void writeJsonFields(JsonWriter &w) const;
};

class DiskPlanCache
{
  public:
    /** Creates @p directory (and parents) if missing; fatals when that
     *  fails or the path exists and is not a directory (user error). */
    explicit DiskPlanCache(std::string directory);

    /** Flushes unreported stats into the cross-process sidecar. */
    ~DiskPlanCache();

    /**
     * Load the artifact for @p key, or nullptr when no usable plan file
     * exists. Unreadable/invalid files are rejected silently (the
     * caller recompiles); rejection reasons are logged at verbose level
     * only.
     */
    ArtifactPtr load(const std::string &key);

    /**
     * Serialise @p artifact and publish it under @p key via a
     * temp-file + atomic-rename pair. I/O failures warn and drop the
     * store (the cache is an accelerator, not a durability contract).
     */
    void store(const std::string &key, const ArtifactPtr &artifact);

    /**
     * The disk-layer lookup protocol in one place: serve @p key from
     * disk if a usable plan file exists, otherwise run @p compute and
     * publish its artifact. Callers layering this under an in-memory
     * cache pass their compute path; see CompileService::lookup.
     */
    ArtifactPtr loadOrCompute(const std::string &key,
                              const std::function<ArtifactPtr()> &compute);

    /** Absolute or user-relative plan file path for @p key. */
    std::string planPath(const std::string &key) const;

    const std::string &directory() const { return directory_; }

    DiskPlanCacheStats stats() const;

    /**
     * Merge the stats accumulated since the last flush into the
     * cross-process sidecar file (service/stats_sidecar.hpp) and return
     * the merged lifetime totals. Idempotent — a second flush with no
     * new activity adds nothing. Runs automatically on destruction, so
     * short-lived processes still contribute their counters.
     */
    DiskPlanCacheStats flushSidecar();

  private:
    std::string directory_;

    mutable std::mutex mutex_; ///< guards stats_/flushed_; I/O unlocked
    DiskPlanCacheStats stats_;
    DiskPlanCacheStats flushed_; ///< snapshot already merged to sidecar
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_DISK_PLAN_CACHE_HPP
