/**
 * @file
 * sim_fleet: the serving simulator's event calendar at millions of
 * events. One runServingSimulation call (compileThreads 1) over a fleet
 * of 4x dynaplasia + 4x prime serving resnet18, bert-large prefill and
 * one-layer opt-6.7b decode (KV buckets {128, 256, 512}, with a
 * deadline) under on/off bursts that alternate moderate load (rho
 * ~0.6) with overload (rho ~3), so both the serve and the shed paths
 * run. One layer keeps the plan table a minor share of the call. The call is
 * repeated with the same seed; its report must be byte-identical.
 * Compiler changes reach this workload only through the plan table.
 */

#include <algorithm>

#include "layers.hpp"
#include "sim/serving/simulator.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using cmswitch::SimResult;
using cmswitch::SimScenario;

/** Simulated requests per measured call (~2 events each). */
constexpr double kArrivalsPerCall = 3e6;
/** Per steady-load probe of the traced run. */
constexpr double kArrivalsPerProbe = 5e5;
constexpr double kModerateRho = 0.6;
constexpr double kOverloadRho = 3.0;

SimScenario
fleetScenario(u64 seed)
{
    SimScenario s;
    s.name = "sim_fleet";
    s.seed = seed;
    s.maxQueue = 64;
    s.chips = {cmswitch::SimChipSpec{"dynaplasia", 4, 1.0},
               cmswitch::SimChipSpec{"prime", 4, 1.0}};
    cmswitch::SimWorkloadSpec resnet;
    resnet.name = resnet.model = "resnet18";
    resnet.weight = 0.4;
    cmswitch::SimWorkloadSpec bert;
    bert.name = "bert-large-prefill";
    bert.model = "bert-large";
    bert.seq = 128;
    bert.weight = 0.2;
    cmswitch::SimWorkloadSpec decode;
    decode.name = "opt-6.7b-decode";
    decode.model = "opt-6.7b";
    decode.layers = 1;
    decode.kvBuckets = {128, 256, 512};
    decode.kvMin = 1;
    decode.kvMax = 512;
    decode.weight = 0.4;
    decode.priority = 1;
    decode.hasDeadline = true;
    decode.deadlineMs = 40;
    s.workloads = {resnet, bert, decode};
    return s;
}

/** Requests per simulated second the fleet serves at rho = 1: the
 *  sum over instances of 1 / mean resident service time of the mix. */
double
fleetCapacity(const SimScenario &s, const SimResult &table)
{
    double weights = 0.0;
    for (const auto &w : s.workloads)
        weights += w.weight;
    double capacity = 0.0;
    for (const auto &chip : s.chips) {
        double mean = 0.0;
        for (const auto &plan : table.plans) {
            if (plan.chip != chip.preset)
                continue;
            for (const auto &w : s.workloads) {
                if (w.name != plan.workload)
                    continue;
                // A bucket serves the KV lengths between its
                // predecessor and itself, drawn uniformly.
                double share = 1.0;
                if (!w.kvBuckets.empty()) {
                    auto it = std::find(w.kvBuckets.begin(),
                                        w.kvBuckets.end(), plan.kvBucket);
                    s64 lower = it == w.kvBuckets.begin() ? w.kvMin - 1
                                                          : *(it - 1);
                    share = static_cast<double>(plan.kvBucket - lower)
                            / static_cast<double>(w.kvMax - w.kvMin + 1);
                }
                mean += w.weight / weights * share
                        * static_cast<double>(plan.residentCycles)
                        / (chip.clockGhz * 1e9);
            }
        }
        capacity += static_cast<double>(chip.count) / mean;
    }
    return capacity;
}

struct Call
{
    SimResult result;
    double wall = 0.0;
    std::string digest;
};

bool
simulate(const SimScenario &s, Call *call, Outcome *out)
{
    std::string error;
    double start = now();
    bool ok;
    {
        cmswitch::obs::Span span("bench.run_serving_simulation", "bench");
        ok = cmswitch::runServingSimulation(s, cmswitch::ServingSimOptions{},
                                            &call->result, &error);
    }
    call->wall = now() - start;
    ++out->attempted;
    if (!ok) {
        out->fail("runServingSimulation: " + error);
        return false;
    }
    const SimResult &r = call->result;
    if (r.arrived != r.completed + r.shedAdmission + r.shedDeadline) {
        out->fail(cmswitch::concat("sim accounting: arrived ", r.arrived,
                                   " != completed + shed"));
        return false;
    }
    call->digest = cmswitch::hexDigest(
        cmswitch::fnv1a64(cmswitch::renderSimReport(s, r, 0)));
    return true;
}

double
events(const SimResult &r)
{
    return static_cast<double>(r.arrived + r.completed);
}

} // namespace

void
runSimFleet(const Options &options, Outcome *out)
{
    SimScenario scenario = fleetScenario(options.seed);

    // Setup: the same scenario with a near-zero horizon builds only the
    // plan table, which also prices the load factors below.
    scenario.durationSeconds = 1e-9;
    scenario.arrival.process = cmswitch::SimArrivalSpec::Process::kPoisson;
    scenario.arrival.ratePerSecond = 1.0;
    std::vector<double> setupSeconds;
    Call table;
    const int repeats = options.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        if (!simulate(scenario, &table, out))
            return;
        setupSeconds.push_back(table.wall);
    }
    const double capacity = fleetCapacity(scenario, table.result);
    const double tableSeconds = median(setupSeconds);

    // Bursts of overload between stretches of moderate load, short
    // against the horizon so every seed sees many of each.
    const double meanRate = 0.5 * (kModerateRho + kOverloadRho) * capacity;
    scenario.durationSeconds = kArrivalsPerCall / meanRate;
    scenario.arrival.process = cmswitch::SimArrivalSpec::Process::kOnOff;
    scenario.arrival.ratePerSecond = kModerateRho * capacity;
    scenario.arrival.burstRatePerSecond = kOverloadRho * capacity;
    scenario.arrival.meanBurstSeconds = scenario.durationSeconds / 1000.0;
    scenario.arrival.meanIdleSeconds = scenario.durationSeconds / 1000.0;

    if (options.trace) {
        Call untraced, traced;
        if (!simulate(scenario, &untraced, out))
            return;
        {
            TracedPhase phase;
            if (!simulate(scenario, &traced, out))
                return;
            std::string error;
            if (!phase.finish(options.outDir + "/sim_fleet.trace.json",
                              &error))
                out->fail(error);
            LayerReport report;
            compilerLayers(phase, &report);
            if (traced.digest != untraced.digest)
                out->fail("sim report differs between traced and untraced "
                          "runs of one seed");
            const SimResult &r = traced.result;
            report.set("sim.events", events(r));
            report.set("sim.shed_ratio",
                       ratio(static_cast<double>(r.shedAdmission
                                                 + r.shedDeadline),
                             static_cast<double>(r.arrived)),
                       r.arrived);
            report.set("sim.plan_table_share",
                       ratio(tableSeconds, untraced.wall));
            report.set("obs.trace_overhead_ratio",
                       ratio(traced.wall, untraced.wall));
            std::vector<double> cycles;
            for (const auto &plan : r.plans)
                cycles.push_back(static_cast<double>(plan.residentCycles));
            report.set("compiler.plan_cycles_geomean", geomean(cycles),
                       static_cast<s64>(cycles.size()));

            // ROADMAP 1d: what one event costs at steady moderate load
            // and at steady overload, plan table excluded.
            for (double rho : {kModerateRho, kOverloadRho}) {
                SimScenario steady = scenario;
                steady.arrival = cmswitch::SimArrivalSpec{};
                steady.arrival.ratePerSecond = rho * capacity;
                steady.durationSeconds =
                    kArrivalsPerProbe / steady.arrival.ratePerSecond;
                Call probe;
                if (!simulate(steady, &probe, out))
                    return;
                double ns = std::max(0.0, probe.wall - tableSeconds) * 1e9
                            / events(probe.result);
                report.set(rho < 1.0 ? "sim.ns_per_event_moderate"
                                     : "sim.ns_per_event_saturated",
                           ns, static_cast<s64>(events(probe.result)));
            }
            report.emit(out);
        }
        return;
    }

    flushWrites();
    std::vector<Call> calls;
    double start = now();
    while (calls.size() < 2 || now() - start < options.seconds) {
        calls.emplace_back();
        if (!simulate(scenario, &calls.back(), out))
            return;
        if (calls.back().digest != calls.front().digest)
            out->fail(cmswitch::concat(
                "sim report digest differs between repeats of seed ",
                options.seed));
    }
    std::vector<double> walls;
    double totalEvents = 0.0, totalWall = 0.0;
    for (const Call &c : calls) {
        walls.push_back(c.wall * 1e3);
        totalEvents += events(c.result);
        totalWall += c.wall;
    }
    auto n = static_cast<s64>(calls.size());
    const SimResult &r = calls.front().result;
    out->addEndToEnd("setup_s", tableSeconds, "s", repeats, "setup_s");
    out->addEndToEnd("peak_rss_mb", peakRssMb(), "MiB", 1, "peak_rss_mb");
    out->addEndToEnd("throughput_per_s", totalEvents / totalWall, "1/s",
                     static_cast<s64>(totalEvents), "sim_events_per_s");
    out->addEndToEnd("latency_ms", median(walls), "ms", n,
                     "sim_call_ms_p50");
    out->addEndToEnd("tail_latency_ms", quantile(walls, 1.0), "ms", n,
                     "sim_call_ms_max");
    out->addInfo("sim.events_per_call", events(r), "count");
    out->addInfo("sim.shed_ratio",
                 ratio(static_cast<double>(r.shedAdmission + r.shedDeadline),
                       static_cast<double>(r.arrived)),
                 "ratio", r.arrived);
    out->addInfo("sim.plan_table_share",
                 ratio(tableSeconds, median(walls) / 1e3),
                 "ratio");
}

} // namespace perfbench
