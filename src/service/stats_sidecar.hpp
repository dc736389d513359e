/**
 * @file
 * Cross-process stats sidecar for the persistent plan cache.
 *
 * DiskPlanCache's hit/miss/store/reject counters are per-process; a
 * fleet of cmswitchc runs sharing one --cache-dir needs *lifetime*
 * totals to judge cache efficacy. Each DiskPlanCache merges its
 * unflushed counter deltas into `<dir>/cache-stats.sidecar` when it is
 * destroyed (or on an explicit flush), using the same tmp-file +
 * atomic-rename publication protocol as plan artifacts: a reader never
 * sees a torn sidecar. The file is a wrapEnvelope() document
 * (`cmswitch-cache-stats-v2` tag + length + FNV-1a digest) over five
 * little-endian s64 totals (hits, misses, stores, rejected,
 * touchFailed). It is the only layout read or written: a sidecar with
 * any other tag (the v1 and v3 layouts of older builds) reads as absent
 * and is overwritten by the next merge — the plan-file policy.
 *
 * Accuracy contract: the read-modify-write merge is not transactional
 * across processes — two processes flushing at the same instant can
 * lose one delta. Totals are observability, not accounting; losing an
 * increment under a rare race is acceptable, serving a torn file is
 * not. A missing or damaged sidecar reads as all-zero and is simply
 * rewritten by the next merge. `cmswitchc cache gc` never deletes the
 * sidecar (it only reaps *.plan artifacts).
 */

#ifndef CMSWITCH_SERVICE_STATS_SIDECAR_HPP
#define CMSWITCH_SERVICE_STATS_SIDECAR_HPP

#include <string>
#include <string_view>

#include "service/disk_plan_cache.hpp"

namespace cmswitch {

/** File name of the stats sidecar inside a cache directory. */
inline constexpr std::string_view kStatsSidecarName = "cache-stats.sidecar";

/** Format tag written by this build (wrapEnvelope document). */
inline constexpr std::string_view kStatsSidecarTag =
    "cmswitch-cache-stats-v2\n";

/** `<directory>/cache-stats.sidecar`. */
std::string statsSidecarPath(const std::string &directory);

/**
 * Read the sidecar totals. A missing, truncated, corrupt, or
 * other-version sidecar yields all-zero totals with @p present (when
 * non-null) set false — stats degrade, they never fail.
 */
DiskPlanCacheStats readStatsSidecar(const std::string &directory,
                                    bool *present = nullptr);

/**
 * Fold @p delta into the sidecar (read current totals, add, publish via
 * tmp + rename) and return the merged totals. Best effort: an I/O
 * failure warns, drops the publication, and still returns the sum.
 */
DiskPlanCacheStats mergeStatsSidecar(const std::string &directory,
                                     const DiskPlanCacheStats &delta);

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_STATS_SIDECAR_HPP
