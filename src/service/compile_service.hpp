/**
 * @file
 * The compilation service: a fixed-size worker pool in front of the
 * compiler registry and a content-keyed plan cache.
 *
 * The paper's CMSwitch flow is a batch compiler; serving traffic needs
 * (a) concurrency — many independent (chip, workload, compiler)
 * requests compiled in parallel, (b) reuse — identical requests must
 * compile once and share the immutable artifact, and (c) single-flight
 * — concurrent identical requests must block on the one in-flight
 * compile instead of duplicating it. CompileService provides all three
 * on top of PlanCache; Compiler instances are const/thread-safe (see
 * compiler_api.hpp), so workers never share mutable compiler state.
 *
 * Artifacts carry everything a report needs (program, latency,
 * validation, energy), and are immutable once published — safe to hand
 * to any number of threads.
 */

#ifndef CMSWITCH_SERVICE_COMPILE_SERVICE_HPP
#define CMSWITCH_SERVICE_COMPILE_SERVICE_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/chip_config.hpp"
#include "compiler/compiler_api.hpp"
#include "graph/passes.hpp"
#include "metaop/validator.hpp"
#include "service/disk_plan_cache.hpp"
#include "service/plan_cache.hpp"
#include "sim/energy.hpp"

namespace cmswitch {

/** One compilation job: resolved chip + graph + compiler + options. */
struct CompileRequest
{
    ChipConfig chip;
    Graph workload;
    std::string compilerId = "cmswitch";

    /** Run the frontend graph passes before compiling. */
    bool optimize = false;

    s64 searchThreads = 1; ///< ignored; perfbench still assigns it
};

/**
 * Canonical content key of @p request: an FNV-1a digest seeded with the
 * build/algorithm fingerprint (service/plan_fingerprint.hpp) and chained
 * over the textual serialisations of the chip config and workload graph
 * plus the compiler id and option flags. Two requests with equal keys
 * compile to identical artifacts; a compiler change that bumps a pass
 * revision changes every key, invalidating persistent caches.
 */
std::string requestKey(const CompileRequest &request);

/** Immutable product of one compile; shared across equal requests. */
struct CompileArtifact
{
    std::string key;          ///< requestKey() of the producing request
    ChipConfig chip;
    std::string compilerId;
    CompileResult result;
    ValidationReport validation;
    EnergyReport energy;
    PassStats passStats;      ///< frontend-pass effects (optimize only)
};

/**
 * Compile @p request in the calling thread, bypassing any cache:
 * resolve the compiler, run it, validate the program against the chip
 * and price its energy. This is the one compile path — service workers
 * and `cmswitchc` single-shot mode both funnel through it.
 * The two-argument form takes a precomputed requestKey() so hot paths
 * hash the request once.
 */
ArtifactPtr compileArtifact(const CompileRequest &request);
ArtifactPtr compileArtifact(const CompileRequest &request, std::string key);

/**
 * Which step of the service lookup chain produced an artifact:
 *   memory   — in-memory PlanCache hit, or a single-flight join of an
 *              in-flight compile of the same key;
 *   disk     — loaded from the persistent plan cache;
 *   cold     — compiled from scratch.
 * The serve daemon stamps this into every response.
 */
enum class CacheOutcome { kMemory, kDisk, kCold };

/** Stable lowercase name ("memory", "disk", "cold"). */
const char *cacheOutcomeName(CacheOutcome outcome);

/**
 * Per-request latency split measured by the caller and threaded into
 * JSON reports (service/json_report.hpp): how long the request sat in
 * a queue before a worker picked it up, and how long the cache lookup
 * + compile took once it ran. Serve, batch and single reports all use
 * this shape, so their observability sections stay field-compatible.
 */
struct ServiceRequestLatency
{
    double queueWaitSeconds = 0.0;
    double executeSeconds = 0.0;
};

struct CompileServiceOptions
{
    s64 threads = 1;        ///< worker pool size (>= 1)
    s64 cacheCapacity = 256;///< completed plans kept (>= 1)
    s64 searchThreads = 1;  ///< ignored; perfbench still assigns it

    /** Directory of the persistent cross-process plan cache; empty
     *  keeps the cache in-memory only. Lookups go memory -> disk ->
     *  compile, and fresh compiles are published back to disk. */
    std::string cacheDir;
};

/** Snapshot of service activity. */
struct CompileServiceStats
{
    s64 requests = 0; ///< submit() + compileNow() calls accepted
    PlanCacheStats cache;
    DiskPlanCacheStats disk; ///< all-zero when no cacheDir is set
};

class CompileService
{
  public:
    explicit CompileService(CompileServiceOptions options = {});
    ~CompileService(); ///< drains the queue, joins the workers

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** Enqueue @p request on the pool; the future may rethrow.
     *  @p latency (may be null) receives the request's queue-wait /
     *  execute split; it must outlive the future and is fully written
     *  before the future becomes ready. */
    std::future<ArtifactPtr> submit(CompileRequest request,
                                    ServiceRequestLatency *latency =
                                        nullptr);

    /**
     * Compile @p request through the cache in the *calling* thread
     * (no queue hop). Safe to mix with submit(): single-flight still
     * holds across both paths. @p outcome (may be null) receives which
     * lookup-chain step produced the artifact.
     */
    ArtifactPtr compileNow(const CompileRequest &request,
                           CacheOutcome *outcome = nullptr);

    CompileServiceStats stats() const;

    const CompileServiceOptions &options() const { return options_; }

    /** The disk layer, or nullptr when options().cacheDir is empty. */
    DiskPlanCache *diskCache() const { return disk_.get(); }

  private:
    void workerLoop();

    /** Single-flighted memory -> disk -> cold lookup;
     *  @p outcome (may be null) reports which step served it. */
    ArtifactPtr lookup(const CompileRequest &request,
                       const std::string &key,
                       CacheOutcome *outcome = nullptr);

    CompileServiceOptions options_;
    PlanCache cache_;
    std::unique_ptr<DiskPlanCache> disk_;

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::packaged_task<ArtifactPtr()>> queue_;
    bool stopping_ = false;
    s64 requests_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_COMPILE_SERVICE_HPP
