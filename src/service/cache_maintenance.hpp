/**
 * @file
 * Lifecycle operations over a persistent plan-cache directory, backing
 * the `cmswitchc cache gc|stats|verify` subcommand family.
 *
 * The disk cache is append-only from the compiler's point of view —
 * DiskPlanCache stores plans and never deletes them — so a fleet-shared
 * --cache-dir grows without bound and accumulates artifacts from dead
 * compiler builds (the fingerprint in requestKey re-keys requests on
 * every registered compiler change, orphaning old files). These
 * operations close the loop:
 *
 *  - gcPlanCache: delete `*.plan` artifacts least-recently *used*
 *    first (by file mtime; DiskPlanCache touches plans on every hit)
 *    until the directory is under a byte budget, optionally expiring
 *    artifacts older than a maximum age first. Orphaned temp files
 *    from crashed writers are reaped too. The stats sidecar is never
 *    a gc candidate.
 *  - verifyPlanCache: validate every artifact's envelope, digest,
 *    payload, and embedded request key; report damage, optionally
 *    deleting damaged files.
 *  - statsPlanCache: the observability snapshot — cross-process
 *    lifetime totals from the sidecar, artifact count/bytes on disk,
 *    and the current build fingerprint.
 *
 * All three are safe to run while other processes use the directory:
 * deleting a plan file under a concurrent reader is the same benign
 * race as a store losing to a rename (the reader misses and
 * recompiles), and reports are computed from one directory walk.
 */

#ifndef CMSWITCH_SERVICE_CACHE_MAINTENANCE_HPP
#define CMSWITCH_SERVICE_CACHE_MAINTENANCE_HPP

#include <string>
#include <vector>

#include "service/disk_plan_cache.hpp"

namespace cmswitch {

class JsonWriter;

struct CacheGcOptions
{
    std::string directory;
    s64 maxBytes = -1;      ///< total *.plan byte budget; -1 = unbounded
    s64 maxAgeSeconds = -1; ///< expire plans older than this; -1 = never
};

/** One deleted artifact, in deletion order (oldest mtime first). */
struct CacheGcDeletion
{
    std::string file;   ///< file name within the cache directory
    s64 bytes = 0;
    std::string reason; ///< "expired" (--max-age) or "evicted" (--max-bytes)
};

struct CacheGcReport
{
    std::string directory;
    s64 scannedFiles = 0; ///< *.plan artifacts found
    s64 scannedBytes = 0;
    s64 deletedFiles = 0;
    s64 deletedBytes = 0;
    s64 keptFiles = 0;
    s64 keptBytes = 0;
    s64 staleTempFiles = 0; ///< orphaned *.tmp.* files reaped
    std::string walkError;  ///< non-empty when the scan ended early
    std::vector<CacheGcDeletion> deleted;

    /** Full cmswitch-cache-gc-v1 JSON document. */
    void writeJson(JsonWriter &w) const;
};

/**
 * Run gc over @p options.directory (fatals when it is not a
 * directory). Deletion order is file mtime ascending with the file
 * name as a deterministic tie-break; --max-age expiry runs before the
 * LRU byte-budget pass, so an expired file never counts against the
 * budget.
 */
CacheGcReport gcPlanCache(const CacheGcOptions &options);

struct CacheVerifyOptions
{
    std::string directory;
    bool removeDamaged = false; ///< delete artifacts that fail validation
};

struct CacheVerifyDamage
{
    std::string file;
    std::string reason; ///< one-line rejection reason
    bool removed = false;
};

struct CacheVerifyReport
{
    std::string directory;
    s64 scannedFiles = 0;
    s64 validFiles = 0;
    s64 damagedFiles = 0;
    s64 removedFiles = 0;
    std::string walkError; ///< non-empty when the scan ended early
    std::vector<CacheVerifyDamage> damaged;

    /** True when the scan completed and no damaged artifact remains on
     *  disk; a partial walk cannot vouch for what it did not see. */
    bool clean() const
    {
        return damagedFiles == removedFiles && walkError.empty();
    }

    /** Full cmswitch-cache-verify-v1 JSON document. */
    void writeJson(JsonWriter &w) const;
};

/**
 * Validate every `*.plan` artifact in @p options.directory exactly the
 * way DiskPlanCache::load would: envelope tag, length, digest, payload
 * decode, and embedded-key-matches-file-name. Damaged files are
 * reported (and deleted when removeDamaged is set); a reader racing a
 * concurrent writer's rename sees old or new bytes, never torn ones,
 * so verify never false-positives on live directories.
 */
CacheVerifyReport verifyPlanCache(const CacheVerifyOptions &options);

struct CacheStatsReport
{
    std::string directory;
    bool sidecarPresent = false;
    DiskPlanCacheStats totals; ///< cross-process lifetime totals
    s64 planFiles = 0;
    s64 planBytes = 0;
    std::string walkError;   ///< non-empty when the scan ended early
    std::string fingerprint; ///< current buildFingerprintHex()

    /** Full cmswitch-cache-stats-report-v3 JSON document. */
    void writeJson(JsonWriter &w) const;
};

/** Snapshot sidecar totals + artifact census for @p directory. */
CacheStatsReport statsPlanCache(const std::string &directory);

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_CACHE_MAINTENANCE_HPP
