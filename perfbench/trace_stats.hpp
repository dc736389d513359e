/**
 * @file
 * Self-time analysis of an exported Chrome trace (obs::TraceRecorder::
 * exportJson): per span name, how many spans, their summed duration,
 * and their summed self time — each span's duration minus the part of
 * it that its direct children on the same thread cover.
 */

#ifndef CMSWITCH_PERFBENCH_TRACE_STATS_HPP
#define CMSWITCH_PERFBENCH_TRACE_STATS_HPP

#include <map>
#include <string>

#include "support/common.hpp"

namespace perfbench {

struct SpanTotals
{
    cmswitch::s64 count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};

/** Fold every complete ('X') event of @p traceJson into per-name
 *  totals. Returns false with @p error on a malformed document. */
bool spanTotals(const std::string &traceJson,
                std::map<std::string, SpanTotals> *out, std::string *error);

} // namespace perfbench

#endif // CMSWITCH_PERFBENCH_TRACE_STATS_HPP
