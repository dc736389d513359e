#include "baselines/baseline.hpp"

namespace cmswitch {

std::unique_ptr<Compiler>
makePumaCompiler(ChipConfig chip, bool referenceSearch)
{
    CmSwitchOptions options;
    options.segmenter.referenceSearch = referenceSearch;
    options.segmenter.useDp = false; // greedy max-fill segmentation
    options.segmenter.livenessAwareWriteback = false;
    options.segmenter.alloc.allowMemoryMode = false;
    options.segmenter.alloc.allowDuplication = true;
    options.segmenter.alloc.pipelined = false; // serial operator issue
    return std::make_unique<CmSwitchCompiler>(std::move(chip), options,
                                              "puma");
}

} // namespace cmswitch
