#include "service/stats_sidecar.hpp"

#include <filesystem>

#include "support/atomic_file.hpp"
#include "support/logging.hpp"
#include "support/serialize.hpp"

namespace cmswitch {

namespace fs = std::filesystem;

std::string
statsSidecarPath(const std::string &directory)
{
    return (fs::path(directory) / std::string(kStatsSidecarName)).string();
}

DiskPlanCacheStats
readStatsSidecar(const std::string &directory, bool *present)
{
    if (present)
        *present = false;
    DiskPlanCacheStats totals;

    std::string data;
    if (!readFileBytes(statsSidecarPath(directory), &data))
        return totals;

    std::string_view payload;
    std::string error;
    if (!unwrapEnvelope(kStatsSidecarTag, data, &payload, &error)) {
        informVerbose("ignoring damaged stats sidecar in ", directory, ": ",
                      error);
        return totals;
    }
    try {
        BinaryReader r(payload);
        totals.hits = r.readS64();
        totals.misses = r.readS64();
        totals.stores = r.readS64();
        totals.rejected = r.readS64();
        totals.touchFailed = r.readS64();
        r.expectEnd();
    } catch (const std::exception &e) {
        informVerbose("ignoring damaged stats sidecar in ", directory, ": ",
                      e.what());
        return DiskPlanCacheStats{};
    }
    if (present)
        *present = true;
    return totals;
}

DiskPlanCacheStats
mergeStatsSidecar(const std::string &directory,
                  const DiskPlanCacheStats &delta)
{
    DiskPlanCacheStats totals = readStatsSidecar(directory);
    totals.hits += delta.hits;
    totals.misses += delta.misses;
    totals.stores += delta.stores;
    totals.rejected += delta.rejected;
    totals.touchFailed += delta.touchFailed;

    BinaryWriter payload;
    payload.writeS64(totals.hits)
        .writeS64(totals.misses)
        .writeS64(totals.stores)
        .writeS64(totals.rejected)
        .writeS64(totals.touchFailed);
    std::string image = wrapEnvelope(kStatsSidecarTag, payload.bytes());

    // Same temp-file + atomic-rename publication as plan artifacts
    // (support/atomic_file.hpp); a failed flush is dropped, not fatal.
    publishFileAtomically(statsSidecarPath(directory), image);
    return totals;
}

} // namespace cmswitch
