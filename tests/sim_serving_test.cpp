/**
 * @file
 * Tests for the discrete-event serving simulator: the strict scenario
 * parser, the service-time split (parity against sim::timing on a
 * single request — the one chain that keeps fleet results honest),
 * byte-determinism of the report across runs and compile thread
 * counts, dual-mode occupancy (resident plans skip reconfiguration),
 * an analytic M/D/1 mean-wait cross-check with a saturation
 * counterpart, KV-bucket plan routing, one report pinned to a
 * committed digest, and the event calendar's own contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "arch/deha.hpp"
#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "sim/serving/event_queue.hpp"
#include "sim/serving/scenario.hpp"
#include "sim/serving/service_time.hpp"
#include "sim/serving/simulator.hpp"
#include "sim/timing.hpp"
#include "support/hash.hpp"
#include "support/random.hpp"

namespace cmswitch {
namespace {

/** Compile one plan the way the simulator does, outside the sim. */
ArtifactPtr
compilePlan(const std::string &model, const std::string &chip,
            s64 decodeKv = 0, s64 layers = 0)
{
    ServeRequest wire;
    wire.model = model;
    wire.chip = chip;
    wire.decodeKv = decodeKv;
    wire.layers = layers;
    CompileRequest request;
    std::string error;
    EXPECT_TRUE(resolveServeRequest(wire, &request, &error)) << error;
    return compileArtifact(request);
}

TimingReport
priceWithTimingSimulator(const CompileArtifact &artifact)
{
    return TimingSimulator(Deha(artifact.chip))
        .run(artifact.result.program);
}

TEST(SimScenario, ParserAcceptsFullDocument)
{
    SimScenario scenario;
    std::string error;
    ASSERT_TRUE(parseSimScenario(R"({
        "schema": "cmswitch-sim-scenario-v1",
        "name": "full",
        "seed": 99,
        "duration_seconds": 12.5,
        "max_queue": 4,
        "discipline": "fifo",
        "arrival": {"process": "poisson", "rate_per_second": 3.5},
        "chips": [
            {"chip": "dynaplasia", "count": 2, "clock_ghz": 1.0},
            {"chip": "prime", "clock_ghz": 0.8}
        ],
        "workloads": [
            {"name": "decode", "model": "opt-6.7b", "layers": 2,
             "weight": 3.0, "priority": 2, "deadline_ms": 50,
             "kv_buckets": [128, 256], "kv_min": 16},
            {"model": "tiny-mlp"}
        ]
    })",
                                 &scenario, &error))
        << error;

    EXPECT_EQ(scenario.name, "full");
    EXPECT_EQ(scenario.seed, 99u);
    EXPECT_DOUBLE_EQ(scenario.durationSeconds, 12.5);
    EXPECT_EQ(scenario.maxQueue, 4);
    EXPECT_TRUE(scenario.fifo);
    EXPECT_EQ(scenario.arrival.process,
              SimArrivalSpec::Process::kPoisson);
    EXPECT_DOUBLE_EQ(scenario.arrival.ratePerSecond, 3.5);
    ASSERT_EQ(scenario.chips.size(), 2u);
    EXPECT_EQ(scenario.chips[0].preset, "dynaplasia");
    EXPECT_EQ(scenario.chips[0].count, 2);
    EXPECT_EQ(scenario.chips[1].count, 1);
    ASSERT_EQ(scenario.workloads.size(), 2u);
    const SimWorkloadSpec &decode = scenario.workloads[0];
    EXPECT_EQ(decode.name, "decode");
    EXPECT_EQ(decode.layers, 2);
    EXPECT_TRUE(decode.hasDeadline);
    EXPECT_EQ(decode.deadlineMs, 50);
    EXPECT_EQ(decode.kvBuckets, (std::vector<s64>{128, 256}));
    EXPECT_EQ(decode.kvMin, 16);
    EXPECT_EQ(decode.kvMax, 256); // defaults to the largest bucket
    // The second workload's name defaults to its model.
    EXPECT_EQ(scenario.workloads[1].name, "tiny-mlp");
    EXPECT_FALSE(scenario.workloads[1].hasDeadline);
}

TEST(SimScenario, ParserRejectsBadDocuments)
{
    const char *kHeader = R"("schema": "cmswitch-sim-scenario-v1",
        "duration_seconds": 1.0,
        "arrival": {"process": "poisson", "rate_per_second": 1.0},
        "chips": [{"chip": "dynaplasia"}],)";
    struct Case
    {
        const char *doc;
        const char *needle; ///< must appear in the error message
    };
    const Case kCases[] = {
        {R"({"schema": "bogus"})", "schema"},
        {R"({"schema": "cmswitch-sim-scenario-v1", "typo": 1})",
         "unknown key 'typo'"},
        // Poisson/onoff need a positive horizon and rates.
        {R"({"schema": "cmswitch-sim-scenario-v1",
             "arrival": {"process": "poisson", "rate_per_second": 1.0},
             "chips": [{"chip": "dynaplasia"}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "duration_seconds"},
        {R"({"schema": "cmswitch-sim-scenario-v1", "duration_seconds": 1.0,
             "arrival": {"process": "poisson"},
             "chips": [{"chip": "dynaplasia"}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "rate_per_second"},
        {R"({"schema": "cmswitch-sim-scenario-v1", "duration_seconds": 1.0,
             "arrival": {"process": "onoff", "burst_rate_per_second": 5.0},
             "chips": [{"chip": "dynaplasia"}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "onoff"},
        {R"({"schema": "cmswitch-sim-scenario-v1",
             "arrival": {"process": "trace",
                         "times_seconds": [2.0, 1.0]},
             "chips": [{"chip": "dynaplasia"}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "sorted"},
        {R"({"schema": "cmswitch-sim-scenario-v1",
             "arrival": {"process": "warp", "rate_per_second": 1.0},
             "chips": [{"chip": "dynaplasia"}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "unknown arrival process"},
        // The fleet totals at most kSimMaxFleetInstances instances; the
        // error names the entry that crosses the cap.
        {R"({"schema": "cmswitch-sim-scenario-v1", "duration_seconds": 1.0,
             "arrival": {"process": "poisson", "rate_per_second": 1.0},
             "chips": [{"chip": "dynaplasia", "count": 4000000000}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "chips[0]: 'count' 4000000000 takes the fleet past 65536"},
        {R"({"schema": "cmswitch-sim-scenario-v1", "duration_seconds": 1.0,
             "arrival": {"process": "poisson", "rate_per_second": 1.0},
             "chips": [{"chip": "dynaplasia", "count": 65536},
                       {"chip": "prime"}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "chips[1]: 'count' 1 takes the fleet past 65536"},
        {R"({"schema": "cmswitch-sim-scenario-v1", "duration_seconds": 1.0,
             "arrival": {"process": "poisson", "rate_per_second": 1.0},
             "chips": [{"chip": "prime", "count": 9223372036854775807},
                       {"chip": "prime", "count": 9223372036854775807}],
             "workloads": [{"model": "tiny-mlp"}]})",
         "chips[0]"},
    };
    for (const Case &c : kCases) {
        SimScenario scenario;
        std::string error;
        EXPECT_FALSE(parseSimScenario(c.doc, &scenario, &error)) << c.doc;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << "error '" << error << "' lacks '" << c.needle << "'";
    }

    // Name-table and workload-shape failures, sharing the valid header.
    const char *kWorkloadCases[] = {
        R"("workloads": [{"model": "no-such-model"}])",
        R"("workloads": [{"model": "tiny-mlp", "compiler": "llvm"}])",
        R"("workloads": [{"model": "tiny-mlp", "weight": 0}])",
        R"("workloads": [{"model": "tiny-mlp", "name": "a"},
                         {"model": "tiny-mlp", "name": "a"}])",
        // kv_buckets: transformer-only, strictly increasing, and the
        // kv range must sit inside them.
        R"("workloads": [{"model": "tiny-mlp", "kv_buckets": [8]}])",
        R"("workloads": [{"model": "opt-6.7b",
                          "kv_buckets": [32, 32]}])",
        R"("workloads": [{"model": "opt-6.7b", "kv_buckets": [32],
                          "kv_max": 64}])",
        R"("workloads": [{"model": "opt-6.7b", "kv_min": 4}])",
        R"("workloads": [])",
    };
    for (const char *tail : kWorkloadCases) {
        std::string doc = std::string("{") + kHeader + tail + "}";
        SimScenario scenario;
        std::string error;
        EXPECT_FALSE(parseSimScenario(doc, &scenario, &error)) << doc;
        EXPECT_FALSE(error.empty());
    }

    {
        SimScenario scenario;
        std::string error;
        const char *doc = R"({"schema": "cmswitch-sim-scenario-v1",
            "duration_seconds": 1.0,
            "arrival": {"process": "poisson", "rate_per_second": 1.0},
            "chips": [{"chip": "et99"}],
            "workloads": [{"model": "tiny-mlp"}]})";
        EXPECT_FALSE(parseSimScenario(doc, &scenario, &error));
        EXPECT_NE(error.find("unknown chip"), std::string::npos) << error;
    }
    {
        // A fleet of exactly kSimMaxFleetInstances parses.
        SimScenario scenario;
        std::string error;
        const char *doc = R"({"schema": "cmswitch-sim-scenario-v1",
            "duration_seconds": 1.0,
            "arrival": {"process": "poisson", "rate_per_second": 1.0},
            "chips": [{"chip": "dynaplasia", "count": 65535},
                      {"chip": "prime"}],
            "workloads": [{"model": "tiny-mlp"}]})";
        EXPECT_TRUE(parseSimScenario(doc, &scenario, &error)) << error;
        ASSERT_EQ(scenario.chips.size(), 2u);
        EXPECT_EQ(scenario.chips[0].count + scenario.chips[1].count,
                  kSimMaxFleetInstances);
    }
    {
        SimScenario scenario;
        std::string error;
        std::string doc = std::string("{") + kHeader
                          + R"("discipline": "lifo",
                               "workloads": [{"model": "tiny-mlp"}]})";
        EXPECT_FALSE(parseSimScenario(doc, &scenario, &error));
        EXPECT_NE(error.find("unknown discipline"), std::string::npos)
            << error;
    }
}

TEST(SimServiceTime, SplitCoversTheWholeBreakdown)
{
    ArtifactPtr artifact = compilePlan("tiny-mlp", "dynaplasia");
    ASSERT_TRUE(artifact);
    TimingReport timing = priceWithTimingSimulator(*artifact);

    // cold = resident + reconfigure, and cold is the breakdown's own
    // total — no field dropped or double-counted by the split.
    EXPECT_EQ(planColdCycles(timing.breakdown),
              planResidentCycles(timing.breakdown)
                  + planReconfigureCycles(timing.breakdown));
    EXPECT_EQ(planColdCycles(timing.breakdown), timing.total());
    EXPECT_GT(planResidentCycles(timing.breakdown), 0u);

    // 2 GHz: two billion cycles per second.
    EXPECT_DOUBLE_EQ(cyclesToSeconds(2'000'000'000, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToSeconds(0, 1.0), 0.0);
}

/**
 * Parity: one request through the whole simulator equals the plan
 * priced by sim::timing directly. A single trace arrival at t=0 on one
 * 1 GHz chip must spend exactly coldCycles/1e9 seconds in service,
 * wait zero, and leave the chip 100% utilised over the makespan.
 */
TEST(SimServing, SingleRequestMatchesTimingSimulator)
{
    SimScenario scenario;
    scenario.name = "parity";
    scenario.seed = 7;
    scenario.arrival.process = SimArrivalSpec::Process::kTrace;
    scenario.arrival.timesSeconds = {0.0};
    scenario.chips.push_back(SimChipSpec{});
    scenario.workloads.push_back(SimWorkloadSpec{});
    scenario.workloads.back().name = "tiny-mlp";
    scenario.workloads.back().model = "tiny-mlp";

    SimResult result;
    std::string error;
    ASSERT_TRUE(
        runServingSimulation(scenario, ServingSimOptions{}, &result,
                             &error))
        << error;

    ArtifactPtr artifact = compilePlan("tiny-mlp", "dynaplasia");
    ASSERT_TRUE(artifact);
    TimingReport timing = priceWithTimingSimulator(*artifact);
    double cold = cyclesToSeconds(planColdCycles(timing.breakdown), 1.0);

    EXPECT_EQ(result.arrived, 1);
    EXPECT_EQ(result.completed, 1);
    ASSERT_EQ(result.plans.size(), 1u);
    const SimPlan &plan = result.plans[0];
    EXPECT_EQ(plan.key, artifact->key);
    EXPECT_EQ(plan.coldCycles, planColdCycles(timing.breakdown));
    EXPECT_EQ(plan.residentCycles,
              planResidentCycles(timing.breakdown));
    EXPECT_EQ(plan.reconfigureCycles,
              planReconfigureCycles(timing.breakdown));
    EXPECT_EQ(plan.switchedArrays, timing.switchedArrays);
    EXPECT_EQ(plan.served, 1);

    // min/max/sum of a LogHistogram are exact, so the parity holds to
    // the double, not just within the estimator bound.
    EXPECT_EQ(result.serviceSeconds.count(), 1);
    EXPECT_DOUBLE_EQ(result.serviceSeconds.min(), cold);
    EXPECT_DOUBLE_EQ(result.serviceSeconds.max(), cold);
    EXPECT_DOUBLE_EQ(result.queueWaitSeconds.max(), 0.0);
    EXPECT_DOUBLE_EQ(result.totalSeconds.max(), cold);
    EXPECT_DOUBLE_EQ(result.makespanSeconds, cold);

    ASSERT_EQ(result.chips.size(), 1u);
    EXPECT_EQ(result.chips[0].installs, 1);
    EXPECT_EQ(result.chips[0].switchedArrays, timing.switchedArrays);
    EXPECT_DOUBLE_EQ(result.chips[0].busySeconds, cold);
    EXPECT_DOUBLE_EQ(result.chips[0].utilization, 1.0);
    ASSERT_EQ(result.workloads.size(), 1u);
    EXPECT_EQ(result.workloads[0].completed, 1);
}

/**
 * The determinism contract: equal scenarios emit byte-identical
 * reports, run to run and across compile thread counts (the pool
 * parallelises plan compilation only; the event loop and the report
 * order never depend on compile completion order).
 */
TEST(SimServing, ReportIsByteIdenticalAcrossRunsAndThreads)
{
    SimScenario scenario;
    std::string error;
    ASSERT_TRUE(parseSimScenario(R"({
        "schema": "cmswitch-sim-scenario-v1",
        "name": "determinism",
        "seed": 42,
        "duration_seconds": 10.0,
        "max_queue": 8,
        "arrival": {"process": "poisson", "rate_per_second": 5.0},
        "chips": [
            {"chip": "dynaplasia", "count": 1, "clock_ghz": 1.0},
            {"chip": "prime", "count": 1, "clock_ghz": 1.2}
        ],
        "workloads": [{"model": "tiny-mlp"}]
    })",
                                 &scenario, &error))
        << error;

    std::string reports[3];
    for (int i = 0; i < 3; ++i) {
        ServingSimOptions options;
        options.compileThreads = i == 2 ? 4 : 1;
        SimResult result;
        ASSERT_TRUE(
            runServingSimulation(scenario, options, &result, &error))
            << error;
        EXPECT_GT(result.arrived, 0);
        reports[i] = renderSimReport(scenario, result);
    }
    EXPECT_EQ(reports[0], reports[1]);
    EXPECT_EQ(reports[0], reports[2]);
}

/**
 * Dual-mode occupancy: the second request for a plan already resident
 * on the chip's arrays skips the reconfiguration prologue. Two trace
 * arrivals, the second after the first finished: one install, service
 * times exactly cold then resident.
 */
TEST(SimServing, ResidentPlanSkipsReconfiguration)
{
    ArtifactPtr artifact = compilePlan("tiny-mlp", "dynaplasia");
    ASSERT_TRUE(artifact);
    TimingReport timing = priceWithTimingSimulator(*artifact);
    double cold = cyclesToSeconds(planColdCycles(timing.breakdown), 1.0);
    double resident =
        cyclesToSeconds(planResidentCycles(timing.breakdown), 1.0);

    SimScenario scenario;
    scenario.name = "occupancy";
    scenario.seed = 3;
    scenario.arrival.process = SimArrivalSpec::Process::kTrace;
    scenario.arrival.timesSeconds = {0.0, 2.0 * cold};
    scenario.chips.push_back(SimChipSpec{});
    scenario.workloads.push_back(SimWorkloadSpec{});
    scenario.workloads.back().name = "tiny-mlp";
    scenario.workloads.back().model = "tiny-mlp";

    SimResult result;
    std::string error;
    ASSERT_TRUE(
        runServingSimulation(scenario, ServingSimOptions{}, &result,
                             &error))
        << error;

    EXPECT_EQ(result.completed, 2);
    ASSERT_EQ(result.chips.size(), 1u);
    EXPECT_EQ(result.chips[0].installs, 1); // one reconfigure, not two
    EXPECT_DOUBLE_EQ(result.serviceSeconds.max(), cold);
    EXPECT_DOUBLE_EQ(result.serviceSeconds.min(), resident);
    EXPECT_DOUBLE_EQ(result.chips[0].busySeconds, cold + resident);
    EXPECT_DOUBLE_EQ(result.chips[0].reconfigureSeconds, cold - resident);
    EXPECT_DOUBLE_EQ(result.queueWaitSeconds.max(), 0.0);
    ASSERT_EQ(result.plans.size(), 1u);
    EXPECT_EQ(result.plans[0].served, 2);
}

/**
 * Queueing-theory cross-check. A single chip serving one resident plan
 * is an M/D/1 queue (Poisson arrivals, deterministic service s), whose
 * mean wait is Wq = rho * s / (2 * (1 - rho)). At rho = 0.5 the
 * simulated mean wait must land near 0.5 * s. Then the saturated
 * counterpart (rho = 5, finite queue): throughput plateaus at the
 * service capacity 1/s, admission control sheds, and tail latency
 * inflates past the unsaturated run's.
 */
TEST(SimServing, AnalyticMeanWaitAndSaturation)
{
    ArtifactPtr artifact = compilePlan("tiny-mlp", "dynaplasia");
    ASSERT_TRUE(artifact);
    TimingReport timing = priceWithTimingSimulator(*artifact);
    double s = cyclesToSeconds(planResidentCycles(timing.breakdown), 1.0);
    ASSERT_GT(s, 0.0);

    SimScenario scenario;
    scenario.name = "md1";
    scenario.seed = 11;
    scenario.durationSeconds = 2000.0 * s;
    scenario.maxQueue = 100000;
    scenario.arrival.process = SimArrivalSpec::Process::kPoisson;
    scenario.arrival.ratePerSecond = 0.5 / s; // rho = 0.5
    scenario.chips.push_back(SimChipSpec{});
    scenario.workloads.push_back(SimWorkloadSpec{});
    scenario.workloads.back().name = "tiny-mlp";
    scenario.workloads.back().model = "tiny-mlp";

    SimResult relaxed;
    std::string error;
    ASSERT_TRUE(
        runServingSimulation(scenario, ServingSimOptions{}, &relaxed,
                             &error))
        << error;
    ASSERT_GT(relaxed.completed, 500); // ~1000 expected at this rate
    EXPECT_EQ(relaxed.shedAdmission, 0);
    EXPECT_EQ(relaxed.completed, relaxed.arrived);

    double meanWait = relaxed.queueWaitSeconds.sum()
                      / static_cast<double>(
                          relaxed.queueWaitSeconds.count());
    double analytic = 0.5 * s; // rho*s / (2*(1-rho)) at rho = 0.5
    EXPECT_NEAR(meanWait, analytic, 0.25 * analytic)
        << "simulated mean wait " << meanWait << " vs M/D/1 "
        << analytic;

    // Saturation: offered load 5x capacity against a 4-slot queue.
    scenario.name = "saturated";
    scenario.durationSeconds = 300.0 * s;
    scenario.maxQueue = 4;
    scenario.arrival.ratePerSecond = 5.0 / s;
    SimResult saturated;
    ASSERT_TRUE(
        runServingSimulation(scenario, ServingSimOptions{}, &saturated,
                             &error))
        << error;

    EXPECT_GT(saturated.shedAdmission, 0);
    EXPECT_EQ(saturated.arrived,
              saturated.completed + saturated.shedAdmission
                  + saturated.shedDeadline);
    // Throughput plateaus at the chip's capacity...
    EXPECT_NEAR(saturated.throughputPerSecond(), 1.0 / s, 0.1 / s);
    EXPECT_GT(saturated.chips[0].utilization, 0.9);
    // ...while the p99 end-to-end latency inflates.
    EXPECT_GT(saturated.totalSeconds.quantile(0.99),
              relaxed.totalSeconds.quantile(0.99));
}

/**
 * KV-bucket decode routing: a decode workload with buckets [128, 256]
 * compiles one plan per bucket, every request lands on the plan of the
 * smallest bucket covering its drawn KV length, and the per-plan
 * served counts add back up to the completed total.
 */
TEST(SimServing, KvBucketsRouteRequestsToPlans)
{
    SimScenario scenario;
    std::string error;
    ASSERT_TRUE(parseSimScenario(R"({
        "schema": "cmswitch-sim-scenario-v1",
        "name": "kv",
        "seed": 5,
        "duration_seconds": 10.0,
        "max_queue": 64,
        "arrival": {"process": "poisson", "rate_per_second": 4.0},
        "chips": [{"chip": "dynaplasia", "clock_ghz": 1.0}],
        "workloads": [{
            "name": "decode", "model": "opt-6.7b", "layers": 2,
            "kv_buckets": [128, 256]
        }]
    })",
                                 &scenario, &error))
        << error;

    SimResult result;
    ASSERT_TRUE(
        runServingSimulation(scenario, ServingSimOptions{}, &result,
                             &error))
        << error;

    ASSERT_EQ(result.plans.size(), 2u);
    EXPECT_EQ(result.plans[0].kvBucket, 128);
    EXPECT_EQ(result.plans[1].kvBucket, 256);
    EXPECT_NE(result.plans[0].key, result.plans[1].key);
    EXPECT_GT(result.arrived, 10);
    EXPECT_EQ(result.completed, result.arrived); // queue drains
    // With kv ~ U[1, 256], both buckets serve (~half each), and the
    // plan tallies partition the completed requests.
    EXPECT_GT(result.plans[0].served, 0);
    EXPECT_GT(result.plans[1].served, 0);
    EXPECT_EQ(result.plans[0].served + result.plans[1].served,
              result.completed);
}

/**
 * FNV-1a digest of the pinned scenario's report (plan keys blanked).
 * Every build — compiler, standard library, optimisation level —
 * must emit these bytes.
 */
constexpr const char *kGoldenSimDigest = "f2e0a7d0425484ff";

/**
 * Pinned report bytes. Two slow chips under on/off bursts against a
 * 6-slot queue, with a priority-1 workload whose 3 ms deadline lapses
 * in the bursts: the run admits, evicts for priority, sheds itself,
 * expires deadlines and completes, so the digest covers the serve
 * queue's every decision and the event loop's every path. Plan keys
 * embed the library version, so they are blanked before hashing.
 */
TEST(SimServing, PinnedReportDigest)
{
    SimScenario scenario;
    std::string error;
    ASSERT_TRUE(parseSimScenario(R"({
        "schema": "cmswitch-sim-scenario-v1",
        "name": "golden",
        "seed": 2026,
        "duration_seconds": 0.5,
        "max_queue": 6,
        "arrival": {"process": "onoff", "rate_per_second": 500.0,
                    "burst_rate_per_second": 5000.0,
                    "mean_burst_seconds": 0.02,
                    "mean_idle_seconds": 0.02},
        "chips": [
            {"chip": "dynaplasia", "count": 1, "clock_ghz": 0.001},
            {"chip": "prime", "count": 1, "clock_ghz": 0.001}
        ],
        "workloads": [
            {"name": "bulk", "model": "tiny-mlp", "weight": 2.0},
            {"name": "urgent", "model": "tiny-mlp", "weight": 1.0,
             "priority": 1, "deadline_ms": 3}
        ]
    })",
                                 &scenario, &error))
        << error;

    SimResult result;
    ASSERT_TRUE(
        runServingSimulation(scenario, ServingSimOptions{}, &result,
                             &error))
        << error;
    EXPECT_GT(result.shedAdmission, 0);
    EXPECT_GT(result.shedDeadline, 0);
    EXPECT_GT(result.completed, 0);

    for (SimPlan &plan : result.plans)
        plan.key.clear();
    const std::string digest =
        hexDigest(fnv1a64(renderSimReport(scenario, result)));
    EXPECT_EQ(digest, kGoldenSimDigest)
        << "the sim report bytes no longer match the committed digest."
        << " If the report change is intended, replace kGoldenSimDigest"
        << " in tests/sim_serving_test.cpp with\n    \"" << digest
        << "\"\nand record the report change in CHANGES.md.";
}

SimEvent
arrivalAt(double time)
{
    SimEvent event;
    event.time = time;
    event.kind = SimEvent::Kind::kArrival;
    return event;
}

SimEvent
completionAt(double time, std::size_t chip)
{
    SimEvent event;
    event.time = time;
    event.kind = SimEvent::Kind::kCompletion;
    event.chip = chip;
    return event;
}

/** An arrival and a completion at one instant pop in push order,
 *  whichever kind was pushed first. */
TEST(EventCalendar, SimultaneousArrivalAndCompletionPopByTick)
{
    for (bool arrivalFirst : {true, false}) {
        EventCalendar calendar;
        if (arrivalFirst) {
            calendar.push(arrivalAt(1.5));
            calendar.push(completionAt(1.5, 3));
        } else {
            calendar.push(completionAt(1.5, 3));
            calendar.push(arrivalAt(1.5));
        }
        EXPECT_EQ(calendar.size(), 2u);
        SimEvent first, second, none;
        ASSERT_TRUE(calendar.pop(&first));
        ASSERT_TRUE(calendar.pop(&second));
        EXPECT_FALSE(calendar.pop(&none));
        EXPECT_TRUE(calendar.empty());
        EXPECT_EQ(first.tick, 0u);
        EXPECT_EQ(second.tick, 1u);
        EXPECT_EQ(first.kind, arrivalFirst ? SimEvent::Kind::kArrival
                                           : SimEvent::Kind::kCompletion);
        EXPECT_EQ(second.kind, arrivalFirst ? SimEvent::Kind::kCompletion
                                            : SimEvent::Kind::kArrival);
    }
}

/** Completions at one instant pop in push order, not heap order; an
 *  earlier completion pushed last still pops first. */
TEST(EventCalendar, EqualTimeCompletionsPopByTick)
{
    EventCalendar calendar;
    const std::size_t kChips[] = {5, 1, 7, 0, 3, 6, 2, 4};
    for (std::size_t chip : kChips)
        calendar.push(completionAt(2.0, chip));
    calendar.push(completionAt(1.0, 9));
    SimEvent event;
    ASSERT_TRUE(calendar.pop(&event));
    EXPECT_EQ(event.chip, 9u);
    EXPECT_EQ(event.tick, 8u);
    for (std::size_t i = 0; i < std::size(kChips); ++i) {
        ASSERT_TRUE(calendar.pop(&event));
        EXPECT_EQ(event.chip, kChips[i]);
        EXPECT_EQ(event.tick, i);
        EXPECT_DOUBLE_EQ(event.time, 2.0);
    }
    EXPECT_FALSE(calendar.pop(&event));
}

/**
 * The calendar against a plain (time, tick) sort. The stream is shaped
 * like the simulator's: at most one arrival pending, at most kChips
 * completions, each push at or after the last popped instant, on a
 * quarter-second grid so equal times are common.
 */
TEST(EventCalendar, MatchesATimeTickSortOnASeededStream)
{
    constexpr std::size_t kChips = 8;
    Rng rng(20261019);
    EventCalendar calendar;
    std::vector<SimEvent> model; // pending events, tick stamped here
    u64 nextTick = 0;
    double now = 0.0;
    std::size_t pops = 0;
    for (int op = 0; op < 200000; ++op) {
        bool arrivalPending = false;
        std::size_t completions = 0;
        for (const SimEvent &e : model) {
            arrivalPending =
                arrivalPending || e.kind == SimEvent::Kind::kArrival;
            completions += e.kind == SimEvent::Kind::kCompletion;
        }
        ASSERT_LE(completions, kChips);
        s64 action = rng.nextInt(0, 2);
        double time = now + 0.25 * static_cast<double>(rng.nextInt(0, 3));
        SimEvent event;
        if (action == 0 && !arrivalPending) {
            event = arrivalAt(time);
        } else if (action == 1 && completions < kChips) {
            event = completionAt(
                time, static_cast<std::size_t>(rng.nextInt(0, kChips - 1)));
        } else {
            SimEvent got;
            if (model.empty()) {
                EXPECT_FALSE(calendar.pop(&got));
                continue;
            }
            auto earliest = std::min_element(
                model.begin(), model.end(),
                [](const SimEvent &a, const SimEvent &b) {
                    return a.time != b.time ? a.time < b.time
                                            : a.tick < b.tick;
                });
            ASSERT_TRUE(calendar.pop(&got));
            ASSERT_EQ(got.tick, earliest->tick);
            ASSERT_EQ(got.time, earliest->time);
            ASSERT_EQ(got.kind, earliest->kind);
            ASSERT_EQ(got.chip, earliest->chip);
            now = got.time;
            model.erase(earliest);
            ++pops;
            continue;
        }
        calendar.push(event);
        event.tick = nextTick++;
        model.push_back(event);
        ASSERT_EQ(calendar.size(), model.size());
    }
    EXPECT_GT(pops, 50000u);
}

TEST(EventCalendarDeath, SecondPendingArrivalIsFatal)
{
    EventCalendar calendar;
    calendar.push(arrivalAt(1.0));
    calendar.push(completionAt(0.5, 0));
    EXPECT_DEATH(calendar.push(arrivalAt(2.0)), "one pending arrival");
}

} // namespace
} // namespace cmswitch
