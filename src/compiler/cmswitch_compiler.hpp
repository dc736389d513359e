/**
 * @file
 * The CMSwitch compiler driver: preprocessing (flatten + partition),
 * dual-mode-aware compilation optimization (DACO: DP segmentation +
 * MIP allocation), and meta-operator code generation — the full
 * pipeline of paper Fig. 7.
 */

#ifndef CMSWITCH_COMPILER_CMSWITCH_COMPILER_HPP
#define CMSWITCH_COMPILER_CMSWITCH_COMPILER_HPP

#include "compiler/codegen.hpp"
#include "compiler/compiler_api.hpp"
#include "compiler/partitioner.hpp"
#include "compiler/segmenter.hpp"
#include "cost/cost_model.hpp"

namespace cmswitch {

/** Tunables of a CMSwitch build (ablation studies flip these). */
struct CmSwitchOptions
{
    SegmenterOptions segmenter; ///< defaults: DP + dual-mode + pipeline
    PartitionOptions partition;

    /** Ablation: keep max-fill sub-operator slicing even when memory
     *  mode is on (disables the dual-mode-aware t* granularity). */
    bool forceMaxFillSlicing = false;
};

/**
 * Dual-mode-aware DNN compiler (this paper). Also serves, with
 * restricted options, as the engine of the baseline compilers.
 *
 * Instances are immutable after construction; compile() builds all
 * per-run state (segmenter, schedule) on the stack, so one compiler
 * may be shared across threads.
 */
class CmSwitchCompiler : public Compiler
{
  public:
    explicit CmSwitchCompiler(ChipConfig chip, CmSwitchOptions options = {},
                              std::string name = "cmswitch");

    std::string name() const override { return name_; }
    CompileResult compile(const Graph &graph) const override;

    /**
     * compile() that also returns the schedule-level view (per-segment
     * allocations) for reporting harnesses like the Fig. 15 bench.
     */
    CompileResult compileWithSchedule(const Graph &graph,
                                      ScheduleResult *schedule) const;

    const Deha &deha() const { return deha_; }
    const CostModel &cost() const { return cost_; }
    const CmSwitchOptions &options() const { return options_; }

  private:
    Deha deha_;
    CostModel cost_;
    CmSwitchOptions options_;
    std::string name_;
};

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_CMSWITCH_COMPILER_HPP
