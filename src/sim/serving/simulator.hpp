/**
 * @file
 * Discrete-event serving simulator: compiled plans under traffic.
 *
 * The compiler answers "how many cycles does this plan take"; this
 * layer answers the fleet question — which plan/chip/fleet config
 * survives a given traffic mix. A scenario (scenario.hpp) describes
 * chips, workloads and an open-loop arrival process; the simulator
 *
 *  1. compiles the *plan table* — one CompileResult per (workload
 *     variant x chip preset), decode workloads fanned out across their
 *     KV buckets — through the real CompileService (so `--threads`
 *     parallelises plan compilation, never the event loop), and prices
 *     each plan with sim::timing's TimingSimulator;
 *  2. replays arrivals through a ServeQueue — the daemon's own
 *     admission/eviction/deadline logic, driven by simulated time —
 *     onto chip instances with dual-mode occupancy: a chip's arrays
 *     hold one installed plan; serving a different plan first pays the
 *     reconfiguration prologue (mode switches + weight rewrites,
 *     service_time.hpp) before the resident cycles;
 *  3. aggregates obs::LogHistogram latency quantiles, per-chip
 *     utilisation and mode-switch counts, per-workload and per-plan
 *     tallies into a byte-deterministic "cmswitch-sim-v1" report.
 *
 * Determinism contract (pinned by sim_serving_test and sim_smoke):
 * all randomness flows from the scenario's seed through one
 * xoshiro256** engine (support/random.hpp), draws are hand-mapped from
 * raw engine words (the standard library's distributions are
 * implementation-defined), simultaneous events resolve by insertion
 * tick, and compiled plans are byte-identical across thread counts —
 * so two runs of one scenario, at any `--threads`, emit identical
 * bytes under any standard library.
 */

#ifndef CMSWITCH_SIM_SERVING_SIMULATOR_HPP
#define CMSWITCH_SIM_SERVING_SIMULATOR_HPP

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/serving/scenario.hpp"

namespace cmswitch {

inline constexpr const char *kSimReportSchema = "cmswitch-sim-v1";

struct ServingSimOptions
{
    s64 compileThreads = 1; ///< plan-table compile pool (>= 1)
};

/** One compiled plan-table entry: (workload variant, chip preset). */
struct SimPlan
{
    std::string workload;  ///< owning workload's name
    s64 kvBucket = 0;      ///< 0 = the single prefill/CNN plan
    std::string chip;      ///< preset name
    std::string key;       ///< requestKey() of the compile
    s64 segments = 0;
    Cycles coldCycles = 0;       ///< install + execute
    Cycles residentCycles = 0;   ///< execute only
    Cycles reconfigureCycles = 0;///< install only
    s64 switchedArrays = 0;      ///< arrays flipped per install
    s64 served = 0;              ///< requests this plan served
};

/** Per-chip-instance tallies. */
struct SimChipUse
{
    std::string chip; ///< preset name
    double clockGhz = 1.0;
    s64 served = 0;
    s64 installs = 0;        ///< plan (re)configurations paid
    s64 switchedArrays = 0;  ///< total arrays flipped across installs
    double busySeconds = 0.0;
    double reconfigureSeconds = 0.0; ///< part of busy spent installing
    double utilization = 0.0;        ///< busy / makespan
};

/** Per-workload tallies. */
struct SimWorkloadUse
{
    std::string name;
    s64 arrived = 0;
    s64 completed = 0;
    s64 shedAdmission = 0;
    s64 shedDeadline = 0;
    obs::LogHistogram totalSeconds; ///< end-to-end, completed only
};

struct SimResult
{
    s64 arrived = 0;
    s64 completed = 0;
    s64 shedAdmission = 0;
    s64 shedDeadline = 0;

    /** Last arrival horizon / last completion instant. */
    double durationSeconds = 0.0;
    double makespanSeconds = 0.0;

    /** @{ Latency estimators over completed requests (seconds). */
    obs::LogHistogram queueWaitSeconds;
    obs::LogHistogram serviceSeconds;
    obs::LogHistogram totalSeconds;
    /** @} */

    std::vector<SimPlan> plans;
    std::vector<SimChipUse> chips;       ///< one per chip *instance*
    std::vector<SimWorkloadUse> workloads;

    double
    throughputPerSecond() const
    {
        return makespanSeconds > 0.0
                   ? static_cast<double>(completed) / makespanSeconds
                   : 0.0;
    }
};

/**
 * Compile the plan table and run the scenario to completion (arrivals
 * stop at the horizon; queued work drains). Fails — never fatals — on
 * unresolvable workloads or a failed compile. Deterministic: equal
 * scenarios give equal results for any compileThreads.
 */
bool runServingSimulation(const SimScenario &scenario,
                          const ServingSimOptions &options, SimResult *out,
                          std::string *error);

/** The cmswitch-sim-v1 report (docs/schemas.md), byte-deterministic. */
std::string renderSimReport(const SimScenario &scenario,
                            const SimResult &result, int indent = 2);

} // namespace cmswitch

#endif // CMSWITCH_SIM_SERVING_SIMULATOR_HPP
