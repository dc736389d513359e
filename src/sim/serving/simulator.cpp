#include "sim/serving/simulator.hpp"

#include <future>
#include <utility>

#include "arch/deha.hpp"
#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "service/serve/serve_queue.hpp"
#include "sim/serving/event_queue.hpp"
#include "sim/serving/service_time.hpp"
#include "sim/timing.hpp"
#include "support/json.hpp"
#include "support/random.hpp"

namespace cmswitch {

namespace {

/**
 * Open-loop arrival stream. Poisson and on/off generate until the
 * scenario horizon; trace replay walks its explicit instants. On/off
 * starts in a burst phase at t = 0 (a deterministic convention — the
 * seed decides everything after that) and uses the memorylessness of
 * the exponential: a draw that crosses the phase boundary is simply
 * re-drawn at the boundary under the next phase's rate.
 */
class ArrivalStream
{
  public:
    ArrivalStream(const SimArrivalSpec &spec, double horizon,
                  Xoshiro256StarStar &engine)
        : spec_(spec), horizon_(horizon), engine_(engine)
    {
        if (spec_.process == SimArrivalSpec::Process::kOnOff) {
            on_ = true;
            phaseEnd_ = exponentialDraw(engine_,
                                        1.0 / spec_.meanBurstSeconds);
        }
    }

    /** Next arrival instant; false when the stream is exhausted. */
    bool
    next(double *out)
    {
        switch (spec_.process) {
        case SimArrivalSpec::Process::kPoisson:
            time_ += exponentialDraw(engine_, spec_.ratePerSecond);
            if (time_ >= horizon_)
                return false;
            *out = time_;
            return true;
        case SimArrivalSpec::Process::kOnOff:
            for (;;) {
                double rate = on_ ? spec_.burstRatePerSecond
                                  : spec_.ratePerSecond;
                if (rate > 0.0) {
                    double dt = exponentialDraw(engine_, rate);
                    if (time_ + dt <= phaseEnd_) {
                        time_ += dt;
                        if (time_ >= horizon_)
                            return false;
                        *out = time_;
                        return true;
                    }
                }
                time_ = phaseEnd_;
                if (time_ >= horizon_)
                    return false;
                on_ = !on_;
                double mean = on_ ? spec_.meanBurstSeconds
                                  : spec_.meanIdleSeconds;
                phaseEnd_ = time_ + exponentialDraw(engine_, 1.0 / mean);
            }
        case SimArrivalSpec::Process::kTrace:
            if (traceIndex_ >= spec_.timesSeconds.size())
                return false;
            *out = spec_.timesSeconds[traceIndex_++];
            return true;
        }
        return false;
    }

  private:
    const SimArrivalSpec &spec_;
    double horizon_;
    Xoshiro256StarStar &engine_;
    double time_ = 0.0;
    bool on_ = false;
    double phaseEnd_ = 0.0;
    std::size_t traceIndex_ = 0;
};

bool
simFail(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

/** A request drawn from the mix, waiting or being served. */
struct PendingRequest
{
    std::size_t workload = 0; ///< index into scenario.workloads
    std::size_t bucket = 0;   ///< index into that workload's buckets
    double arrivalSeconds = 0.0;
};

/** One chip instance's live state. */
struct ChipState
{
    std::size_t preset = 0; ///< index into the unique-preset list
    std::size_t use = 0;    ///< index into SimResult::chips
    bool busy = false;
    s64 residentPlan = -1; ///< flat plan index installed on the arrays

    /** @{ the request being served (busy only). */
    std::size_t workload = 0;
    std::size_t plan = 0;
    double waitSeconds = 0.0;
    double serviceSeconds = 0.0;
    double arrivalSeconds = 0.0;
    /** @} */
};

} // namespace

bool
runServingSimulation(const SimScenario &scenario,
                     const ServingSimOptions &options, SimResult *out,
                     std::string *error)
{
    if (options.compileThreads < 1)
        return simFail(error, "sim needs compileThreads >= 1");

    *out = SimResult();

    // ---- Unique chip presets and per-workload bucket lists.
    std::vector<std::string> presets;
    for (const SimChipSpec &chip : scenario.chips) {
        bool known = false;
        for (const std::string &preset : presets)
            known = known || preset == chip.preset;
        if (!known)
            presets.push_back(chip.preset);
    }
    std::vector<std::vector<s64>> buckets; // per workload; {0} = single
    for (const SimWorkloadSpec &workload : scenario.workloads) {
        buckets.push_back(workload.kvBuckets.empty()
                              ? std::vector<s64>{0}
                              : workload.kvBuckets);
    }

    // ---- Compile the plan table through the real service. Order is
    // (workload, bucket, preset) — fixed regardless of which compile
    // finishes first, so the report's plan list is deterministic.
    CompileServiceOptions serviceOptions;
    serviceOptions.threads = options.compileThreads;
    CompileService service(serviceOptions);

    struct PlanSlot
    {
        std::size_t workload, bucket, preset;
        std::future<ArtifactPtr> artifact;
    };
    std::vector<PlanSlot> slots;
    // planIndex[workload][bucket][preset] -> flat index into out->plans
    std::vector<std::vector<std::vector<s64>>> planIndex;
    for (std::size_t w = 0; w < scenario.workloads.size(); ++w) {
        const SimWorkloadSpec &spec = scenario.workloads[w];
        planIndex.emplace_back();
        for (std::size_t b = 0; b < buckets[w].size(); ++b) {
            planIndex[w].emplace_back(presets.size(), -1);
            for (std::size_t p = 0; p < presets.size(); ++p) {
                ServeRequest wire;
                wire.model = spec.model;
                wire.chip = presets[p];
                wire.compiler = spec.compiler;
                wire.batch = spec.batch;
                wire.seq = spec.seq;
                wire.decodeKv = buckets[w][b];
                wire.layers = spec.layers;
                wire.optimize = spec.optimize;
                CompileRequest request;
                if (!resolveServeRequest(wire, &request, error))
                    return simFail(error, "workload '" + spec.name
                                              + "': "
                                              + (error ? *error : ""));
                planIndex[w][b][p] = static_cast<s64>(slots.size());
                PlanSlot slot;
                slot.workload = w;
                slot.bucket = b;
                slot.preset = p;
                slot.artifact = service.submit(std::move(request));
                slots.push_back(std::move(slot));
            }
        }
    }

    for (PlanSlot &slot : slots) {
        ArtifactPtr artifact;
        try {
            artifact = slot.artifact.get();
        } catch (const std::exception &e) {
            return simFail(error,
                           "compile failed for workload '"
                               + scenario.workloads[slot.workload].name
                               + "': " + e.what());
        }
        // Price the plan with the timing simulator — the independent
        // hardware model, which timing_test pins equal to the
        // compiler's own estimate for cmswitch plans.
        TimingReport timing =
            TimingSimulator(Deha(artifact->chip)).run(
                artifact->result.program);
        SimPlan plan;
        plan.workload = scenario.workloads[slot.workload].name;
        plan.kvBucket = buckets[slot.workload][slot.bucket];
        plan.chip = presets[slot.preset];
        plan.key = artifact->key;
        plan.segments = artifact->result.numSegments();
        plan.coldCycles = planColdCycles(timing.breakdown);
        plan.residentCycles = planResidentCycles(timing.breakdown);
        plan.reconfigureCycles = planReconfigureCycles(timing.breakdown);
        plan.switchedArrays = timing.switchedArrays;
        out->plans.push_back(std::move(plan));
    }

    // ---- Fleet instances, in chips[] order.
    std::vector<ChipState> fleet;
    for (const SimChipSpec &chip : scenario.chips) {
        std::size_t preset = 0;
        while (presets[preset] != chip.preset)
            ++preset;
        for (s64 i = 0; i < chip.count; ++i) {
            ChipState state;
            state.preset = preset;
            state.use = fleet.size();
            fleet.push_back(state);
            SimChipUse use;
            use.chip = chip.preset;
            use.clockGhz = chip.clockGhz;
            out->chips.push_back(std::move(use));
        }
    }
    std::vector<double> clocks;
    for (const SimChipUse &use : out->chips)
        clocks.push_back(use.clockGhz);

    for (const SimWorkloadSpec &spec : scenario.workloads) {
        SimWorkloadUse use;
        use.name = spec.name;
        out->workloads.push_back(std::move(use));
    }

    // ---- Cumulative mix weights for the workload draw.
    std::vector<double> cumulativeWeight;
    double totalWeight = 0.0;
    for (const SimWorkloadSpec &spec : scenario.workloads) {
        totalWeight += spec.weight;
        cumulativeWeight.push_back(totalWeight);
    }

    // ---- The event loop. One engine, seeded from the scenario alone.
    Xoshiro256StarStar engine(scenario.seed);
    double horizon =
        scenario.arrival.process == SimArrivalSpec::Process::kTrace
            ? scenario.arrival.timesSeconds.back() + 1.0
            : scenario.durationSeconds;
    ArrivalStream arrivals(scenario.arrival, horizon, engine);
    EventCalendar calendar;
    ServeQueue queue(scenario.maxQueue);
    // The queued requests by queue slot. Slots stay below the most
    // requests that have waited at once, so this grows to that peak.
    std::vector<PendingRequest> waiting;
    std::vector<ServeQueue::Handle> expired; // reused by every dispatch
    std::size_t freeChips = fleet.size();
    u64 nextSeq = 1;
    double lastArrival = 0.0;

    auto countShed = [&](std::size_t workload, bool deadline) {
        if (deadline) {
            ++out->shedDeadline;
            ++out->workloads[workload].shedDeadline;
        } else {
            ++out->shedAdmission;
            ++out->workloads[workload].shedAdmission;
        }
    };
    auto shedWaiting = [&](ServeQueue::Handle ticket, bool deadline) {
        countShed(waiting[ticket.slot].workload, deadline);
    };

    auto dispatch = [&](double now) {
        while (freeChips > 0) {
            ServeQueue::Handle popped;
            expired.clear();
            bool got = queue.pop(now, &popped, &expired);
            for (ServeQueue::Handle ticket : expired)
                shedWaiting(ticket, /*deadline=*/true);
            if (!got)
                return;
            PendingRequest request = waiting[popped.slot];
            // Placement: a free chip whose arrays already hold this
            // request's plan serves it without reconfiguring; lowest
            // instance index wins ties. Otherwise the first free chip
            // pays the install.
            const std::vector<s64> &planByPreset =
                planIndex[request.workload][request.bucket];
            std::size_t chosen = fleet.size();
            for (std::size_t i = 0; i < fleet.size(); ++i) {
                if (fleet[i].busy)
                    continue;
                if (chosen == fleet.size())
                    chosen = i;
                if (fleet[i].residentPlan == planByPreset[fleet[i].preset]) {
                    chosen = i;
                    break;
                }
            }
            ChipState &chip = fleet[chosen];
            s64 planId = planByPreset[chip.preset];
            const SimPlan &plan =
                out->plans[static_cast<std::size_t>(planId)];
            SimChipUse &use = out->chips[chip.use];
            Cycles cycles = plan.residentCycles;
            if (chip.residentPlan != planId) {
                cycles = plan.coldCycles;
                chip.residentPlan = planId;
                ++use.installs;
                use.switchedArrays += plan.switchedArrays;
                use.reconfigureSeconds +=
                    cyclesToSeconds(plan.reconfigureCycles, use.clockGhz);
            }
            chip.busy = true;
            --freeChips;
            chip.workload = request.workload;
            chip.plan = static_cast<std::size_t>(planId);
            chip.arrivalSeconds = request.arrivalSeconds;
            chip.waitSeconds = now - request.arrivalSeconds;
            chip.serviceSeconds = cyclesToSeconds(cycles, use.clockGhz);
            SimEvent completion;
            completion.time = now + chip.serviceSeconds;
            completion.kind = SimEvent::Kind::kCompletion;
            completion.chip = chosen;
            calendar.push(completion);
        }
    };

    double firstArrival = 0.0;
    if (arrivals.next(&firstArrival)) {
        SimEvent event;
        event.time = firstArrival;
        event.kind = SimEvent::Kind::kArrival;
        calendar.push(event);
    }

    SimEvent event;
    while (calendar.pop(&event)) {
        if (event.kind == SimEvent::Kind::kArrival) {
            lastArrival = event.time;
            // Draw the request: workload by weight, then its KV bucket
            // (smallest bucket >= a uniform KV length).
            double pick = uniformDouble(engine) * totalWeight;
            std::size_t w = 0;
            while (w + 1 < cumulativeWeight.size()
                   && pick >= cumulativeWeight[w])
                ++w;
            const SimWorkloadSpec &spec = scenario.workloads[w];
            std::size_t bucket = 0;
            if (!spec.kvBuckets.empty()) {
                s64 kv = uniformInt(engine, spec.kvMin, spec.kvMax);
                while (spec.kvBuckets[bucket] < kv)
                    ++bucket;
            }
            ++out->arrived;
            ++out->workloads[w].arrived;
            u64 seq = nextSeq++;
            s64 priority = scenario.fifo ? 0 : spec.priority;
            double deadline =
                spec.hasDeadline
                    ? event.time
                          + static_cast<double>(spec.deadlineMs) / 1e3
                    : 0.0;
            ServeQueue::Admission admission =
                queue.admit(seq, priority, spec.hasDeadline, deadline);
            if (admission.kind == ServeQueue::Admission::Kind::kShedSelf) {
                countShed(w, /*deadline=*/false); // never waited
            } else {
                // The victim's slot may be the one just handed out, so
                // count it before the new request takes the slot.
                if (admission.kind
                    == ServeQueue::Admission::Kind::kShedVictim)
                    shedWaiting(admission.victim, /*deadline=*/false);
                if (admission.slot >= waiting.size())
                    waiting.resize(admission.slot + 1);
                PendingRequest &request = waiting[admission.slot];
                request.workload = w;
                request.bucket = bucket;
                request.arrivalSeconds = event.time;
            }
            double nextTime = 0.0;
            if (arrivals.next(&nextTime)) {
                SimEvent next;
                next.time = nextTime;
                next.kind = SimEvent::Kind::kArrival;
                calendar.push(next);
            }
            dispatch(event.time);
        } else {
            ChipState &chip = fleet[event.chip];
            SimChipUse &use = out->chips[chip.use];
            chip.busy = false;
            ++freeChips;
            ++use.served;
            use.busySeconds += chip.serviceSeconds;
            ++out->plans[chip.plan].served;
            ++out->completed;
            ++out->workloads[chip.workload].completed;
            double total = chip.waitSeconds + chip.serviceSeconds;
            // The result is this thread's alone until the call returns.
            out->queueWaitSeconds.recordSingleWriter(chip.waitSeconds);
            out->serviceSeconds.recordSingleWriter(chip.serviceSeconds);
            out->totalSeconds.recordSingleWriter(total);
            out->workloads[chip.workload].totalSeconds.recordSingleWriter(
                total);
            out->makespanSeconds = event.time;
            dispatch(event.time);
        }
    }

    out->durationSeconds =
        scenario.arrival.process == SimArrivalSpec::Process::kTrace
            ? lastArrival
            : scenario.durationSeconds;
    for (SimChipUse &use : out->chips) {
        use.utilization = out->makespanSeconds > 0.0
                              ? use.busySeconds / out->makespanSeconds
                              : 0.0;
    }
    return true;
}

namespace {

const char *
arrivalProcessName(SimArrivalSpec::Process process)
{
    switch (process) {
    case SimArrivalSpec::Process::kPoisson: return "poisson";
    case SimArrivalSpec::Process::kOnOff: return "onoff";
    case SimArrivalSpec::Process::kTrace: return "trace";
    }
    return "poisson";
}

} // namespace

std::string
renderSimReport(const SimScenario &scenario, const SimResult &result,
                int indent)
{
    JsonWriter w(indent);
    w.beginObject();
    w.field("schema", kSimReportSchema);
    w.key("scenario")
        .beginObject()
        .field("name", scenario.name)
        .field("seed", static_cast<s64>(scenario.seed))
        .field("arrival", arrivalProcessName(scenario.arrival.process))
        .field("discipline", scenario.fifo ? "fifo" : "priority")
        .field("duration_seconds", result.durationSeconds)
        .field("max_queue", scenario.maxQueue)
        .endObject();
    w.key("requests")
        .beginObject()
        .field("arrived", result.arrived)
        .field("completed", result.completed)
        .field("shed_admission", result.shedAdmission)
        .field("shed_deadline", result.shedDeadline)
        .endObject();
    w.field("throughput_rps", result.throughputPerSecond());
    w.field("makespan_seconds", result.makespanSeconds);
    w.key("latency").beginObject();
    w.key("queue_wait_seconds");
    result.queueWaitSeconds.writeJson(w);
    w.key("service_seconds");
    result.serviceSeconds.writeJson(w);
    w.key("total_seconds");
    result.totalSeconds.writeJson(w);
    w.endObject();
    w.key("chips").beginArray();
    for (const SimChipUse &use : result.chips) {
        w.beginObject()
            .field("chip", use.chip)
            .field("clock_ghz", use.clockGhz)
            .field("served", use.served)
            .field("utilization", use.utilization)
            .field("busy_seconds", use.busySeconds)
            .field("installs", use.installs)
            .field("switched_arrays", use.switchedArrays)
            .field("reconfigure_seconds", use.reconfigureSeconds)
            .endObject();
    }
    w.endArray();
    w.key("workloads").beginArray();
    for (const SimWorkloadUse &use : result.workloads) {
        w.beginObject()
            .field("name", use.name)
            .field("arrived", use.arrived)
            .field("completed", use.completed)
            .field("shed_admission", use.shedAdmission)
            .field("shed_deadline", use.shedDeadline);
        w.key("total_seconds");
        use.totalSeconds.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.key("plans").beginArray();
    for (const SimPlan &plan : result.plans) {
        w.beginObject()
            .field("workload", plan.workload)
            .field("kv_bucket", plan.kvBucket)
            .field("chip", plan.chip)
            .field("key", plan.key)
            .field("segments", plan.segments)
            .field("cold_cycles", plan.coldCycles)
            .field("resident_cycles", plan.residentCycles)
            .field("reconfigure_cycles", plan.reconfigureCycles)
            .field("switched_arrays", plan.switchedArrays)
            .field("served", plan.served)
            .endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace cmswitch
