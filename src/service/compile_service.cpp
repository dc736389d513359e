#include "service/compile_service.hpp"

#include <chrono>

#include "arch/chip_parser.hpp"
#include "baselines/baseline.hpp"
#include "graph/passes.hpp"
#include "graph/serialize.hpp"
#include "obs/obs.hpp"
#include "service/plan_fingerprint.hpp"
#include "support/hash.hpp"
#include "support/logging.hpp"

namespace cmswitch {

std::string
requestKey(const CompileRequest &request)
{
    // The key opens with the build/algorithm fingerprint: a registered
    // compiler change (or a library version bump) re-keys every request,
    // so persistent caches never serve plans from a different compiler
    // build (service/plan_fingerprint.hpp). Then hash canonical text
    // serialisations, not struct bytes: padding and field order stay
    // out of the key, and renaming a preset chip file to identical
    // content still hits.
    u64 h = buildFingerprint();
    h = fnv1a64(serializeChipConfig(request.chip), h);
    h = fnv1a64(serializeGraph(request.workload), h);
    h = fnv1a64(request.compilerId, h);
    h = fnv1a64(request.optimize ? "|optimize" : "|raw", h);
    // searchThreads is deliberately excluded: plans are byte-identical
    // for any search width (segmenter_diff_test pins this), so a warm
    // cache serves every width from one entry.
    return hexDigest(h);
}

ArtifactPtr
compileArtifact(const CompileRequest &request)
{
    return compileArtifact(request, requestKey(request));
}

ArtifactPtr
compileArtifact(const CompileRequest &request, std::string key)
{
    obs::Span span("compile_artifact", "service");
    obs::count(obs::Met::kCompiles);
    auto artifact = std::make_shared<CompileArtifact>();
    artifact->key = std::move(key);
    artifact->chip = request.chip;
    artifact->compilerId = request.compilerId;

    // Only the optimize path needs a mutable copy of the workload.
    const Graph *graph = &request.workload;
    Graph optimized;
    if (request.optimize) {
        optimized = request.workload;
        artifact->passStats = runFrontendPasses(&optimized);
        graph = &optimized;
    }

    cmswitch_fatal_if(request.searchThreads < 1,
                      "compile request needs searchThreads >= 1, got ",
                      request.searchThreads);
    auto compiler = makeCompilerByName(request.compilerId, request.chip,
                                       /*referenceSearch=*/false,
                                       request.searchThreads);
    {
        obs::ScopedPhase backend(obs::Hist::kPhaseBackend,
                                 "backend.compile", "service");
        artifact->result = compiler->compile(*graph);
    }

    Deha deha(request.chip);
    {
        obs::ScopedPhase validate(obs::Hist::kPhaseValidate, "validate",
                                  "service");
        artifact->validation =
            validateProgram(artifact->result.program, deha);
    }
    {
        obs::ScopedPhase price(obs::Hist::kPhaseEnergy, "energy.price",
                               "service");
        EnergyModel energy(deha, EnergyParams::forChip(request.chip));
        artifact->energy = energy.price(artifact->result.program,
                                        artifact->result.totalCycles());
    }
    return artifact;
}

// Runs in the member-init list so a bad option fatals with the
// service's own message before any member (the plan cache, the worker
// pool) ever sees the value.
static CompileServiceOptions validatedServiceOptions(CompileServiceOptions options)
{
    cmswitch_fatal_if(options.threads < 1,
                      "compile service needs at least one worker thread");
    cmswitch_fatal_if(options.searchThreads < 1,
                      "compile service needs searchThreads >= 1, got ",
                      options.searchThreads);
    cmswitch_fatal_if(options.cacheCapacity < 1,
                      "compile service needs cacheCapacity >= 1, got ",
                      options.cacheCapacity);
    return options;
}

CompileService::CompileService(CompileServiceOptions options)
    : options_(validatedServiceOptions(std::move(options))),
      cache_(options_.cacheCapacity)
{
    if (!options_.cacheDir.empty())
        disk_ = std::make_unique<DiskPlanCache>(options_.cacheDir);
    workers_.reserve(static_cast<std::size_t>(options_.threads));
    for (s64 i = 0; i < options_.threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
CompileService::workerLoop()
{
    for (;;) {
        std::packaged_task<ArtifactPtr()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

const char *
cacheOutcomeName(CacheOutcome outcome)
{
    switch (outcome) {
    case CacheOutcome::kMemory: return "memory";
    case CacheOutcome::kDisk: return "disk";
    case CacheOutcome::kCold: return "cold";
    }
    cmswitch_panic("cacheOutcomeName: bad outcome ",
                   static_cast<int>(outcome));
}

ArtifactPtr
CompileService::lookup(const CompileRequest &request, const std::string &key,
                       CacheOutcome *outcome)
{
    // The classification flags are only written inside the compute
    // lambda, which getOrCompute runs in *this* thread iff this call is
    // the one that computes (single-flight). A join of someone else's
    // in-flight compute leaves entered == false and classifies as a
    // memory hit, matching PlanCache's own hit accounting.
    bool entered = false;
    CacheOutcome produced = CacheOutcome::kDisk;
    ArtifactPtr artifact = cache_.getOrCompute(key, [&] {
        entered = true;
        auto compile = [&] {
            produced = CacheOutcome::kCold;
            return compileArtifact(request, key);
        };
        return disk_ ? disk_->loadOrCompute(key, compile) : compile();
    });
    if (outcome)
        *outcome = entered ? produced : CacheOutcome::kMemory;
    return artifact;
}

std::future<ArtifactPtr>
CompileService::submit(CompileRequest request,
                       ServiceRequestLatency *latency)
{
    request.searchThreads = options_.searchThreads;
    std::string key = requestKey(request); // hash before the move below
    std::packaged_task<ArtifactPtr()> task(
        [this, request = std::move(request), key = std::move(key), latency,
         enqueued = std::chrono::steady_clock::now()]() -> ArtifactPtr {
            auto pickup = std::chrono::steady_clock::now();
            double wait =
                std::chrono::duration<double>(pickup - enqueued).count();
            if (obs::metricsEnabled())
                obs::recordSeconds(obs::Hist::kServiceQueueWait, wait);
            obs::ScopedPhase execute(obs::Hist::kServiceExecute,
                                     "service.execute", "service");
            ArtifactPtr artifact = lookup(request, key);
            if (latency) {
                // Written before the packaged_task fulfills the future,
                // so future.get() sequences these stores for the caller.
                latency->queueWaitSeconds = wait;
                latency->executeSeconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - pickup)
                        .count();
            }
            return artifact;
        });
    std::future<ArtifactPtr> future = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        cmswitch_fatal_if(stopping_,
                          "submit() on a stopping compile service");
        ++requests_;
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
    return future;
}

ArtifactPtr
CompileService::compileNow(const CompileRequest &request,
                           CacheOutcome *outcome)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++requests_;
    }
    CompileRequest stamped = request;
    stamped.searchThreads = options_.searchThreads;
    std::string key = requestKey(stamped);
    obs::ScopedPhase execute(obs::Hist::kServiceExecute, "service.execute",
                             "service");
    return lookup(stamped, key, outcome);
}

CompileServiceStats
CompileService::stats() const
{
    CompileServiceStats out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.requests = requests_;
    }
    out.cache = cache_.stats();
    if (disk_)
        out.disk = disk_->stats();
    return out;
}

} // namespace cmswitch
