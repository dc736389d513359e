/**
 * @file
 * Serving-simulator throughput trajectory: how fast the discrete-event
 * loop (src/sim/serving/) replays traffic, and what the simulated
 * fleet delivers while it does.
 *
 * Two scenarios over a 2-chip heterogeneous fleet serving the resident
 * tiny-mlp plan: moderate load (rho ~0.6 per chip) and saturation
 * (offered 3x capacity against a finite queue). The simulated numbers
 * (arrived/completed/throughput) are deterministic model properties.
 * The wall-clock events-per-second figure is a quick look only: a few
 * milliseconds of wall per scenario is too little to track, and
 * perfbench's sim_fleet workload times the same loop over millions of
 * events. Load factors are expressed in units of the
 * plan's own service time, so the scenario keeps its shape if the
 * compiler's latency model moves.
 */

#include <iostream>

#include "arch/deha.hpp"
#include "bench_util.hpp"
#include "harness.hpp"
#include "service/compile_service.hpp"
#include "service/serve/serve_protocol.hpp"
#include "sim/serving/service_time.hpp"
#include "sim/serving/simulator.hpp"
#include "sim/timing.hpp"
#include "support/logging.hpp"
#include "support/table.hpp"

namespace cmswitch {

namespace {

/** Two-chip fleet under Poisson load of @p rho per chip, running long
 *  enough for ~horizonServices services per chip. */
SimScenario
makeScenario(const char *name, double rho, double horizonServices,
             double serviceSeconds)
{
    SimScenario scenario;
    scenario.name = name;
    scenario.seed = 17;
    scenario.durationSeconds = horizonServices * serviceSeconds;
    scenario.maxQueue = 64;
    scenario.arrival.process = SimArrivalSpec::Process::kPoisson;
    scenario.arrival.ratePerSecond = 2.0 * rho / serviceSeconds;
    SimChipSpec prime;
    prime.preset = "prime";
    scenario.chips = {SimChipSpec{}, prime};
    SimWorkloadSpec workload;
    workload.name = "tiny-mlp";
    workload.model = "tiny-mlp";
    scenario.workloads = {workload};
    return scenario;
}

} // namespace

int
benchMain(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseArgs(argc, argv);
    bench::Harness::Options hopts;
    hopts.repeats = args.repeats > 0 ? args.repeats : 3;
    if (args.warmups >= 0)
        hopts.warmups = args.warmups;
    bench::Harness harness(hopts);
    bench::BenchReport report("sim_throughput", hopts);

    // Price the plan once so load is phrased in service times.
    ServeRequest wire;
    wire.model = "tiny-mlp";
    CompileRequest request;
    std::string error;
    if (!resolveServeRequest(wire, &request, &error))
        cmswitch_fatal("sim_throughput: ", error);
    ArtifactPtr artifact = compileArtifact(request);
    TimingReport timing =
        TimingSimulator(Deha(artifact->chip)).run(artifact->result.program);
    double serviceSeconds =
        cyclesToSeconds(planResidentCycles(timing.breakdown), 1.0);

    struct Case
    {
        const char *name;
        double rho;
        double horizonServices;
    };
    const Case kCases[] = {
        {"moderate_load", 0.6, args.full ? 20000.0 : 3000.0},
        {"saturated", 3.0, args.full ? 8000.0 : 1200.0},
    };

    Table table("Serving simulator: simulated fleet throughput and "
                "event-loop wall speed");
    table.addRow({"scenario", "arrived", "completed", "sim rps",
                  "wall s", "events/s wall"});
    for (const Case &c : kCases) {
        SimScenario scenario =
            makeScenario(c.name, c.rho, c.horizonServices, serviceSeconds);
        SimResult result;
        bench::TimingStats stats = harness.time([&] {
            SimResult fresh;
            if (!runServingSimulation(scenario, ServingSimOptions{},
                                      &fresh, &error))
                cmswitch_fatal("sim_throughput: ", error);
            result = std::move(fresh);
        });
        // Every request is one arrival event plus (if served) one
        // completion event.
        double events = static_cast<double>(result.arrived)
                        + static_cast<double>(result.completed);
        double eventsPerSecond =
            stats.trimmedMean > 0.0 ? events / stats.trimmedMean : 0.0;
        table.addRow(c.name,
                     {static_cast<double>(result.arrived),
                      static_cast<double>(result.completed),
                      result.throughputPerSecond(), stats.trimmedMean,
                      eventsPerSecond},
                     2);
        bench::BenchRecord row;
        row.name = c.name;
        row.metric("arrived", static_cast<double>(result.arrived))
            .metric("completed", static_cast<double>(result.completed))
            .metric("shed_admission",
                    static_cast<double>(result.shedAdmission))
            .metric("sim_makespan_seconds", result.makespanSeconds)
            .metric("sim_throughput_rps", result.throughputPerSecond())
            .metric("wall_seconds", stats.trimmedMean)
            .metric("events_per_wall_second", eventsPerSecond);
        report.add(std::move(row));
    }
    table.print(std::cout);

    if (!args.out.empty()) {
        report.write(args.out);
        std::cout << "\nwrote " << args.out << "\n";
    }
    return 0;
}

} // namespace cmswitch

int
main(int argc, char **argv)
{
    return cmswitch::benchMain(argc, argv);
}
