#include "compiler/cmswitch_compiler.hpp"

#include <chrono>

#include "obs/obs.hpp"
#include "support/logging.hpp"

namespace cmswitch {

CmSwitchCompiler::CmSwitchCompiler(ChipConfig chip, CmSwitchOptions options,
                                   std::string name)
    : deha_(std::move(chip)), cost_(deha_), options_(options),
      name_(std::move(name))
{
}

CompileResult
CmSwitchCompiler::compile(const Graph &graph) const
{
    return compileWithSchedule(graph, nullptr);
}

CompileResult
CmSwitchCompiler::compileWithSchedule(const Graph &graph,
                                      ScheduleResult *schedule_out) const
{
    auto t0 = std::chrono::steady_clock::now();

    PartitionOptions partition = options_.partition;
    partition.dualModeAware =
        !options_.forceMaxFillSlicing
        && (partition.dualModeAware
            || options_.segmenter.alloc.allowMemoryMode);
    std::vector<ScheduledOp> ops = flattenGraph(graph, deha_, partition);
    cmswitch_fatal_if(ops.empty(),
                      "graph ", graph.name(), " has no CIM-supportable ops");

    Segmenter segmenter(cost_, options_.segmenter);
    ScheduleResult schedule = segmenter.run(ops);
    cmswitch_fatal_if(!schedule.feasible(),
                      "no feasible schedule for ", graph.name(), " on ",
                      deha_.config().name);

    CompileResult result;
    {
        obs::ScopedPhase codegen(obs::Hist::kPhaseCodegen, "codegen",
                                 "compiler");
        codegen.arg("scheduled_ops", static_cast<s64>(ops.size()));
        result.program = generateProgram(graph.name(), deha_, ops, schedule,
                                         options_.segmenter.alloc.pipelined);
    }
    result.latency = schedule.latency;

    auto t1 = std::chrono::steady_clock::now();
    result.compileSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    obs::recordSeconds(obs::Hist::kPhaseCompile, result.compileSeconds);
    if (schedule_out)
        *schedule_out = std::move(schedule);
    return result;
}

} // namespace cmswitch
