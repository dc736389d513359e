#include "baselines/baseline.hpp"

namespace cmswitch {

std::unique_ptr<Compiler>
makeOccCompiler(ChipConfig chip, bool referenceSearch)
{
    CmSwitchOptions options;
    options.segmenter.referenceSearch = referenceSearch;
    options.segmenter.useDp = false; // greedy one-pass segmentation
    options.segmenter.livenessAwareWriteback = true;
    options.segmenter.alloc.allowMemoryMode = false;
    // OCC's tiling/loop-unrolling spreads an operator across idle
    // crossbars, which the shared engine models as duplication.
    options.segmenter.alloc.allowDuplication = true;
    options.segmenter.alloc.pipelined = false; // operators issue serially
    return std::make_unique<CmSwitchCompiler>(std::move(chip), options,
                                              "occ");
}

} // namespace cmswitch
