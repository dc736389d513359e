#include "service/disk_plan_cache.hpp"

#include <filesystem>
#include <system_error>

#include "obs/obs.hpp"
#include "service/artifact_io.hpp"
#include "service/stats_sidecar.hpp"
#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace cmswitch {

namespace fs = std::filesystem;

void
DiskPlanCacheStats::writeJsonFields(JsonWriter &w) const
{
    w.field("disk_hits", hits)
        .field("disk_misses", misses)
        .field("disk_stores", stores)
        .field("disk_rejected", rejected)
        .field("disk_touch_failed", touchFailed);
}

DiskPlanCache::DiskPlanCache(std::string directory)
    : directory_(std::move(directory))
{
    cmswitch_fatal_if(directory_.empty(),
                      "plan cache directory must not be empty");
    std::error_code ec;
    fs::create_directories(directory_, ec);
    cmswitch_fatal_if(ec, "cannot create plan cache directory ",
                      directory_, ": ", ec.message());
    cmswitch_fatal_if(!fs::is_directory(directory_),
                      "plan cache path ", directory_,
                      " exists and is not a directory");
}

DiskPlanCache::~DiskPlanCache()
{
    bool dirty;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dirty = stats_.hits != flushed_.hits
             || stats_.misses != flushed_.misses
             || stats_.stores != flushed_.stores
             || stats_.rejected != flushed_.rejected
             || stats_.touchFailed != flushed_.touchFailed;
    }
    // Nothing new since the last flush (e.g. batch mode flushed for its
    // summary moments ago): skip the sidecar I/O entirely.
    if (dirty)
        flushSidecar();
}

std::string
DiskPlanCache::planPath(const std::string &key) const
{
    return (fs::path(directory_) / (key + ".plan")).string();
}

ArtifactPtr
DiskPlanCache::load(const std::string &key)
{
    obs::Span span("disk_cache.load", "cache");
    std::string path = planPath(key);
    std::string error;
    bool missing = false;
    ArtifactPtr artifact = readPlanFile(path, key, &error, &missing);
    if (missing) { // absent: a plain miss, not a rejection
        obs::count(obs::Met::kDiskCacheMisses);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return nullptr;
    }
    if (!artifact) {
        informVerbose("ignoring plan file ", path, ": ", error);
        obs::count(obs::Met::kDiskCacheMisses);
        obs::count(obs::Met::kDiskCacheRejected);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        ++stats_.rejected;
        return nullptr;
    }
    // Refresh the plan file's mtime so `cmswitchc cache gc` (LRU by
    // mtime) treats reads as uses, not just writes. Best effort: a
    // read-only cache directory still serves hits; the failure is
    // counted (touchFailed) so operators can see GC's LRU order is
    // running on stale read times.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    if (ec)
        informVerbose("plan cache hit ", path,
                      " but mtime refresh failed: ", ec.message());
    obs::count(obs::Met::kDiskCacheHits);
    if (ec)
        obs::count(obs::Met::kDiskCacheTouchFailed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.hits;
        if (ec)
            ++stats_.touchFailed;
    }
    return artifact;
}

void
DiskPlanCache::store(const std::string &key, const ArtifactPtr &artifact)
{
    cmswitch_assert(artifact != nullptr, "cannot store a null artifact");
    cmswitch_assert(artifact->key == key,
                    "artifact key does not match store key");
    obs::Span span("disk_cache.store", "cache");
    std::string image = serializeCompileArtifact(*artifact);

    // Temp-file + atomic-rename publication (support/atomic_file.hpp):
    // concurrent readers see the old plan, the new plan, or nothing —
    // never a torn file. A failed publication is a dropped store, not
    // an error — the cache is an accelerator, not a durability
    // contract.
    if (!publishFileAtomically(planPath(key), image))
        return;
    obs::count(obs::Met::kDiskCacheStores);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
}

ArtifactPtr
DiskPlanCache::loadOrCompute(const std::string &key,
                             const std::function<ArtifactPtr()> &compute)
{
    if (ArtifactPtr artifact = load(key))
        return artifact;
    ArtifactPtr artifact = compute();
    store(key, artifact);
    return artifact;
}

DiskPlanCacheStats
DiskPlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

DiskPlanCacheStats
DiskPlanCache::flushSidecar()
{
    DiskPlanCacheStats delta;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        delta.hits = stats_.hits - flushed_.hits;
        delta.misses = stats_.misses - flushed_.misses;
        delta.stores = stats_.stores - flushed_.stores;
        delta.rejected = stats_.rejected - flushed_.rejected;
        delta.touchFailed = stats_.touchFailed - flushed_.touchFailed;
        flushed_ = stats_;
    }
    if (delta.hits == 0 && delta.misses == 0 && delta.stores == 0
        && delta.rejected == 0 && delta.touchFailed == 0)
        return readStatsSidecar(directory_);
    return mergeStatsSidecar(directory_, delta);
}

} // namespace cmswitch
