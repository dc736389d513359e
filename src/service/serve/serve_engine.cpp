#include "service/serve/serve_engine.hpp"

#include "obs/obs.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace cmswitch {

namespace {

/** Validate the knobs and force service.threads to 1 (the engine's
 *  workers are the concurrency; the service pool would only idle). */
ServeEngineOptions
validatedEngineOptions(ServeEngineOptions options)
{
    cmswitch_fatal_if(options.maxInflight < 1,
                      "serve engine needs maxInflight >= 1, got ",
                      options.maxInflight);
    cmswitch_fatal_if(options.maxQueue < 1,
                      "serve engine needs maxQueue >= 1, got ",
                      options.maxQueue);
    cmswitch_fatal_if(options.statusEvery < 0,
                      "serve engine needs statusEvery >= 0, got ",
                      options.statusEvery);
    options.service.threads = 1;
    return options;
}

obs::Met
cacheOutcomeMet(CacheOutcome outcome)
{
    switch (outcome) {
    case CacheOutcome::kMemory: return obs::Met::kServeCacheMemory;
    case CacheOutcome::kDisk: return obs::Met::kServeCacheDisk;
    case CacheOutcome::kCold: return obs::Met::kServeCacheCold;
    }
    cmswitch_panic("cacheOutcomeMet: bad outcome ",
                   static_cast<int>(outcome));
}

} // namespace

ServeEngine::ServeEngine(ServeEngineOptions options, LineFn onResponse,
                         LineFn onStatus)
    : options_(validatedEngineOptions(std::move(options))),
      service_(options_.service),
      onResponse_(std::move(onResponse)),
      onStatus_(std::move(onStatus)),
      epoch_(std::chrono::steady_clock::now()),
      queue_(options_.maxQueue)
{
    cmswitch_fatal_if(!onResponse_, "serve engine needs a response sink");
    workers_.reserve(static_cast<std::size_t>(options_.maxInflight));
    for (s64 i = 0; i < options_.maxInflight; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ServeEngine::~ServeEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        held_ = false; // a destructor must not deadlock on a held queue
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

double
ServeEngine::nowSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - epoch_)
        .count();
}

void
ServeEngine::emit(const std::string &line)
{
    std::lock_guard<std::mutex> lock(emitMutex_);
    onResponse_(line);
}

void
ServeEngine::emitStatus()
{
    if (!onStatus_)
        return;
    std::string line = statusLine("", /*interval=*/true);
    std::lock_guard<std::mutex> lock(emitMutex_);
    onStatus_(line);
}

void
ServeEngine::emitShedGroup(const Group &group, const char *reason,
                           s64 depth, s64 inflight)
{
    emit(renderServeShed(group.lead.id, reason, depth, inflight));
    for (const std::string &rider : group.riderIds)
        emit(renderServeShed(rider, reason, depth, inflight));
}

bool
ServeEngine::handleLine(const std::string &line)
{
    ServeRequest request;
    std::string error;
    if (!parseServeRequest(line, &request, &error)) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++errors_;
        }
        obs::count(obs::Met::kServeErrors);
        emit(renderServeError(request.id, error));
        return true;
    }
    switch (request.op) {
    case ServeRequest::Op::kCompile:
        handleCompile(request);
        return true;
    case ServeRequest::Op::kStatus:
        emit(statusLine(request.id, /*interval=*/false));
        return true;
    case ServeRequest::Op::kHold:
        {
            std::lock_guard<std::mutex> lock(mutex_);
            held_ = true;
        }
        emit(renderServeAck(request.id, "hold"));
        return true;
    case ServeRequest::Op::kRelease:
        {
            std::lock_guard<std::mutex> lock(mutex_);
            held_ = false;
        }
        wake_.notify_all();
        emit(renderServeAck(request.id, "release"));
        return true;
    case ServeRequest::Op::kDrain:
        drainIdle();
        emit(renderServeAck(request.id, "drain"));
        return true;
    case ServeRequest::Op::kShutdown:
        // Ack first so a pipelining client sees the acceptance, then
        // drain: everything already admitted completes, the session
        // ends afterwards. New lines should not follow a shutdown.
        emit(renderServeAck(request.id, "shutdown"));
        {
            std::lock_guard<std::mutex> lock(mutex_);
            held_ = false;
        }
        wake_.notify_all();
        drainIdle();
        return false;
    }
    return true;
}

void
ServeEngine::handleCompile(const ServeRequest &request)
{
    obs::count(obs::Met::kServeReceived);
    CompileRequest resolved;
    std::string error;
    bool ok = resolveServeRequest(request, &resolved, &error);
    if (!ok) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++received_;
            ++errors_;
        }
        obs::count(obs::Met::kServeErrors);
        emit(renderServeError(request.id, error));
        return;
    }
    std::string key = requestKey(resolved);

    bool rider = false;
    bool shedSelf = false;
    bool haveVictim = false;
    Group victim;
    s64 depth = 0;
    s64 inflight = 0;
    s64 victimShed = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++received_;
        auto coalesce = keyToSeq_.find(key);
        if (coalesce != keyToSeq_.end()) {
            // Same plan already queued or compiling: ride it. No queue
            // slot, no admission contest, one shared artifact.
            auto queuedIt = queued_.find(coalesce->second);
            Group &group = queuedIt != queued_.end()
                               ? queuedIt->second
                               : inflight_.at(coalesce->second);
            group.riderIds.push_back(request.id);
            ++coalesced_;
            rider = true;
        } else {
            double now = nowSeconds();
            u64 seq = nextSeq_++;
            double deadline =
                request.hasDeadline
                    ? now + static_cast<double>(request.deadlineMs) / 1e3
                    : 0.0;
            ServeQueue::Admission admission = queue_.admit(
                seq, request.priority, request.hasDeadline, deadline);
            depth = queue_.size();
            inflight = inflightCount_;
            if (admission.kind == ServeQueue::Admission::Kind::kShedSelf) {
                ++shedAdmission_;
                shedSelf = true;
            } else {
                if (admission.kind
                    == ServeQueue::Admission::Kind::kShedVictim) {
                    auto victimIt = queued_.find(admission.victim.seq);
                    victim = std::move(victimIt->second);
                    queued_.erase(victimIt);
                    keyToSeq_.erase(victim.key);
                    victimShed =
                        1 + static_cast<s64>(victim.riderIds.size());
                    shedAdmission_ += victimShed;
                    haveVictim = true;
                }
                ++admitted_;
                Group group;
                group.seq = seq;
                group.key = key;
                group.lead = request;
                group.request = std::move(resolved);
                group.enqueuedSeconds = now;
                keyToSeq_.emplace(key, seq);
                queued_.emplace(seq, std::move(group));
            }
            obs::setGauge(obs::Gau::kServeQueueDepth, queue_.size());
        }
    }
    if (rider) {
        obs::count(obs::Met::kServeCoalesced);
        return;
    }
    if (shedSelf) {
        obs::count(obs::Met::kServeShedAdmission);
        emit(renderServeShed(request.id, "admission", depth, inflight));
        return;
    }
    obs::count(obs::Met::kServeAdmitted);
    if (haveVictim) {
        obs::count(obs::Met::kServeShedAdmission, victimShed);
        emitShedGroup(victim, "admission", depth, inflight);
    }
    wake_.notify_one();
}

void
ServeEngine::workerLoop()
{
    for (;;) {
        std::vector<Group> expiredGroups;
        bool got = false;
        u64 workSeq = 0;
        CompileRequest workRequest;
        double enqueuedSeconds = 0.0;
        double popSeconds = 0.0;
        s64 shedDepth = 0;
        s64 shedInflight = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] {
                return stopping_ || (!held_ && !queue_.empty());
            });
            if (queue_.empty()) {
                if (stopping_)
                    return; // drained
                continue;   // another worker took the last ticket
            }
            double now = nowSeconds();
            std::vector<ServeQueue::Handle> expired;
            ServeQueue::Handle popped;
            got = queue_.pop(now, &popped, &expired);
            for (const ServeQueue::Handle &ticket : expired) {
                auto it = queued_.find(ticket.seq);
                Group group = std::move(it->second);
                queued_.erase(it);
                keyToSeq_.erase(group.key);
                shedDeadline_ +=
                    1 + static_cast<s64>(group.riderIds.size());
                expiredGroups.push_back(std::move(group));
            }
            if (got) {
                auto it = queued_.find(popped.seq);
                workSeq = popped.seq;
                workRequest = it->second.request;
                enqueuedSeconds = it->second.enqueuedSeconds;
                popSeconds = now;
                ++inflightCount_;
                // The group stays findable through keyToSeq_ while it
                // compiles so duplicates arriving now still coalesce;
                // riders attached meanwhile are picked up at completion.
                inflight_.emplace(workSeq, std::move(it->second));
                queued_.erase(it);
            }
            shedDepth = queue_.size();
            shedInflight = inflightCount_;
            if (!expiredGroups.empty())
                ++pendingEmits_; // the deadline-shed responses below
            obs::setGauge(obs::Gau::kServeQueueDepth, queue_.size());
            obs::setGauge(obs::Gau::kServeInflight, inflightCount_);
        }
        if (!expiredGroups.empty()) {
            for (const Group &group : expiredGroups) {
                obs::count(obs::Met::kServeShedDeadline,
                           1 + static_cast<s64>(group.riderIds.size()));
                emitShedGroup(group, "deadline", shedDepth, shedInflight);
            }
            std::lock_guard<std::mutex> lock(mutex_);
            --pendingEmits_;
            notifyIfIdleLocked();
        }
        if (!got)
            continue;

        CacheOutcome outcome = CacheOutcome::kCold;
        ArtifactPtr artifact;
        std::string compileError;
        try {
            artifact = service_.compileNow(workRequest, &outcome);
        } catch (const std::exception &e) {
            compileError = e.what();
        }
        double doneSeconds = nowSeconds();
        ServiceRequestLatency latency;
        latency.queueWaitSeconds = popSeconds - enqueuedSeconds;
        latency.executeSeconds = doneSeconds - popSeconds;

        Group finished;
        bool statusDue = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = inflight_.find(workSeq);
            finished = std::move(it->second);
            inflight_.erase(it);
            keyToSeq_.erase(finished.key);
            --inflightCount_;
            s64 members = 1 + static_cast<s64>(finished.riderIds.size());
            if (artifact) {
                completed_ += members;
                ++completedGroups_;
                cacheOutcomes_[static_cast<std::size_t>(outcome)] += 1;
                statusDue = options_.statusEvery > 0
                            && completedGroups_ % options_.statusEvery == 0;
            } else {
                errors_ += members;
            }
            queueWaitHist_.record(latency.queueWaitSeconds);
            executeHist_.record(latency.executeSeconds);
            totalHist_.record(latency.queueWaitSeconds
                              + latency.executeSeconds);
            ++pendingEmits_; // the result/error responses below
            obs::setGauge(obs::Gau::kServeInflight, inflightCount_);
        }
        obs::recordSeconds(obs::Hist::kServeQueueWait,
                           latency.queueWaitSeconds);
        obs::recordSeconds(obs::Hist::kServeExecute,
                           latency.executeSeconds);
        obs::recordSeconds(obs::Hist::kServeTotal,
                           latency.queueWaitSeconds
                               + latency.executeSeconds);
        if (artifact) {
            obs::count(cacheOutcomeMet(outcome));
            emit(renderServeResult(finished.lead, *artifact, outcome,
                                   /*coalesced=*/false, latency));
            for (const std::string &riderId : finished.riderIds) {
                ServeRequest echo = finished.lead;
                echo.id = riderId;
                emit(renderServeResult(echo, *artifact, outcome,
                                       /*coalesced=*/true, latency));
            }
        } else {
            obs::count(obs::Met::kServeErrors,
                       1 + static_cast<s64>(finished.riderIds.size()));
            emit(renderServeError(finished.lead.id, compileError));
            for (const std::string &riderId : finished.riderIds)
                emit(renderServeError(riderId, compileError));
        }
        // The periodic line goes out before this group's pendingEmits_
        // credit is returned, so drainIdle() (and thus "drain") also
        // guarantees every due periodic status line has been written.
        if (statusDue)
            emitStatus();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pendingEmits_;
            notifyIfIdleLocked();
        }
    }
}

void
ServeEngine::notifyIfIdleLocked()
{
    if (queue_.empty() && queued_.empty() && inflightCount_ == 0
        && pendingEmits_ == 0)
        idle_.notify_all();
}

void
ServeEngine::drainIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] {
        return queue_.empty() && queued_.empty() && inflightCount_ == 0
               && pendingEmits_ == 0;
    });
}

std::string
ServeEngine::statusLine(const std::string &id, bool interval)
{
    CompileServiceStats serviceStats = service_.stats();
    JsonWriter w(0);
    std::lock_guard<std::mutex> lock(mutex_);
    w.beginObject()
        .field("schema", kServeStatusSchema)
        .field("id", id);
    w.key("requests")
        .beginObject()
        .field("received", received_)
        .field("admitted", admitted_)
        .field("coalesced", coalesced_)
        .field("shed_admission", shedAdmission_)
        .field("shed_deadline", shedDeadline_)
        .field("errors", errors_)
        .field("completed", completed_)
        .endObject();
    w.key("queue")
        .beginObject()
        .field("depth", queue_.size())
        .field("inflight", inflightCount_)
        .field("max_queue", options_.maxQueue)
        .field("max_inflight", options_.maxInflight)
        .field("held", held_)
        .endObject();
    w.key("cache")
        .beginObject()
        .field("memory",
               cacheOutcomes_[static_cast<std::size_t>(
                   CacheOutcome::kMemory)])
        .field("disk",
               cacheOutcomes_[static_cast<std::size_t>(
                   CacheOutcome::kDisk)])
        .field("cold",
               cacheOutcomes_[static_cast<std::size_t>(
                   CacheOutcome::kCold)])
        .endObject();
    w.key("plan_cache")
        .beginObject()
        .field("hits", serviceStats.cache.hits)
        .field("misses", serviceStats.cache.misses)
        .field("evictions", serviceStats.cache.evictions)
        .endObject();
    w.key("latency").beginObject();
    w.key("queue_wait_seconds");
    queueWaitHist_.writeJson(w);
    w.key("execute_seconds");
    executeHist_.writeJson(w);
    w.key("total_seconds");
    totalHist_.writeJson(w);
    w.endObject();
    if (interval) {
        // True deltas since the previous periodic line: snapshot the
        // cumulative histograms then subtract the last snapshot —
        // exact for counts and sums, bucket-bound min/max (see
        // LogHistogram::subtractSnapshot).
        obs::LogHistogram queueWaitDelta = queueWaitHist_;
        obs::LogHistogram executeDelta = executeHist_;
        obs::LogHistogram totalDelta = totalHist_;
        queueWaitDelta.subtractSnapshot(queueWaitSnap_);
        executeDelta.subtractSnapshot(executeSnap_);
        totalDelta.subtractSnapshot(totalSnap_);
        w.key("interval").beginObject();
        w.field("completed", completed_ - completedSnap_);
        w.key("queue_wait_seconds");
        queueWaitDelta.writeJson(w);
        w.key("execute_seconds");
        executeDelta.writeJson(w);
        w.key("total_seconds");
        totalDelta.writeJson(w);
        w.endObject();
        queueWaitSnap_ = queueWaitHist_;
        executeSnap_ = executeHist_;
        totalSnap_ = totalHist_;
        completedSnap_ = completed_;
    }
    w.endObject();
    return serveLine(w);
}

std::string
ServeEngine::statusJson()
{
    return statusLine("", /*interval=*/false);
}

} // namespace cmswitch
