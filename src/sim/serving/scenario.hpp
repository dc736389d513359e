/**
 * @file
 * Serving-simulator scenario config: what traffic hits what fleet.
 *
 * A scenario is one JSON document (schema "cmswitch-sim-scenario-v1")
 * written by an operator or a test, describing:
 *
 *  - the fleet: chip preset + instance count + clock (GHz) per entry —
 *    heterogeneity comes from mixing entries;
 *  - the workload mix: zoo models with the serve protocol's compile
 *    fields, a sampling weight, serve-queue priority/deadline knobs,
 *    and (for decode) the KV-bucket plan family a request's KV length
 *    is rounded up into;
 *  - the arrival process: Poisson, bursty on/off (Poisson modulated by
 *    exponential on/off phases), or an explicit trace replay;
 *  - the RNG seed — the *only* randomness source of a run. There is no
 *    wall-clock seeding anywhere in src/sim/: equal scenario, equal
 *    report, byte for byte.
 *
 * Parsing mirrors serve_protocol.cpp: strict (unknown keys rejected),
 * non-fatal (every failure is a message naming the field), resolved
 * against the zoo/preset name tables only. docs/simulation.md holds
 * the operator-facing field tables.
 */

#ifndef CMSWITCH_SIM_SERVING_SCENARIO_HPP
#define CMSWITCH_SIM_SERVING_SCENARIO_HPP

#include <string>
#include <vector>

#include "support/common.hpp"

namespace cmswitch {

inline constexpr const char *kSimScenarioSchema =
    "cmswitch-sim-scenario-v1";

/** The most chip instances a scenario's fleet may total. */
inline constexpr s64 kSimMaxFleetInstances = 65536;

/** One fleet entry: @p count identical instances of a chip preset. */
struct SimChipSpec
{
    std::string preset = "dynaplasia"; ///< "dynaplasia" or "prime"
    s64 count = 1;
    double clockGhz = 1.0; ///< cycles -> seconds conversion for these
};

/** One entry of the request mix. */
struct SimWorkloadSpec
{
    std::string name;  ///< report label; defaults to the model name
    std::string model; ///< zoo model or "tiny-mlp" (no file paths)
    std::string compiler = "cmswitch";
    s64 batch = 1;
    s64 seq = 64;
    s64 layers = 0; ///< transformer layer override; 0 keeps the zoo's
    bool optimize = false;

    /** Relative sampling weight within the mix (> 0). */
    double weight = 1.0;

    /** @{ serve-queue knobs, same semantics as the daemon's. */
    s64 priority = 0;
    bool hasDeadline = false;
    s64 deadlineMs = 0;
    /** @} */

    /**
     * Decode plan family: per-request KV length is drawn uniformly in
     * [kvMin, kvMax] and served by the plan of the smallest bucket
     * >= it. Empty = a single prefill/CNN plan. Buckets must be
     * strictly increasing; kvMax defaults to the largest bucket.
     */
    std::vector<s64> kvBuckets;
    s64 kvMin = 1;
    s64 kvMax = 0;
};

/** Open-loop arrival process of the scenario. */
struct SimArrivalSpec
{
    enum class Process { kPoisson, kOnOff, kTrace };

    Process process = Process::kPoisson;

    /** Poisson rate; for on/off, the rate during *off* phases (>= 0). */
    double ratePerSecond = 0.0;

    /** @{ on/off (bursty) parameters: Poisson at burstRatePerSecond
     *  during exponentially-distributed bursts of mean
     *  meanBurstSeconds, separated by exponential idle gaps of mean
     *  meanIdleSeconds. */
    double burstRatePerSecond = 0.0;
    double meanBurstSeconds = 0.0;
    double meanIdleSeconds = 0.0;
    /** @} */

    /** Trace replay: explicit arrival instants, sorted ascending. */
    std::vector<double> timesSeconds;
};

struct SimScenario
{
    std::string name = "scenario";
    u64 seed = 1;

    /** Arrivals are generated while t < durationSeconds (ignored by
     *  trace replay, which derives it from the last instant). */
    double durationSeconds = 0.0;

    /** Waiting-room bound, same admission policy as `cmswitchc serve`
     *  (--max-queue). */
    s64 maxQueue = 16;

    /** "priority" (default) honours workload priorities/deadlines via
     *  ServeQueue's dispatch order; "fifo" zeroes every priority so
     *  dispatch degenerates to arrival order. */
    bool fifo = false;

    SimArrivalSpec arrival;
    std::vector<SimChipSpec> chips;        ///< >= 1 entry
    std::vector<SimWorkloadSpec> workloads;///< >= 1 entry, unique names
};

/**
 * Parse and validate one scenario document. Strict and non-fatal:
 * unknown keys, wrong types, out-of-range values, unknown
 * model/chip/compiler names, unsorted buckets or trace instants all
 * fail with a message. @p out is unspecified on failure.
 */
bool parseSimScenario(const std::string &text, SimScenario *out,
                      std::string *error);

} // namespace cmswitch

#endif // CMSWITCH_SIM_SERVING_SCENARIO_HPP
