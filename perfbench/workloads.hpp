/**
 * @file
 * The four workloads. Each fills @p out with its attempts, failed
 * checks and — untraced — the end-to-end metrics, or — traced
 * (Options::trace) — the per-layer catalog of layers.hpp.
 */

#ifndef CMSWITCH_PERFBENCH_WORKLOADS_HPP
#define CMSWITCH_PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace perfbench {

void runCompileCold(const Options &options, Outcome *out);
void runServeHot(const Options &options, Outcome *out);
void runServeKvSweep(const Options &options, Outcome *out);
void runSimFleet(const Options &options, Outcome *out);

/** How many times setup is repeated; setup_s is their median. */
inline constexpr int kSetupRepeats = 3;

} // namespace perfbench

#endif // CMSWITCH_PERFBENCH_WORKLOADS_HPP
