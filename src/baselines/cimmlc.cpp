#include "baselines/baseline.hpp"

namespace cmswitch {

std::unique_ptr<Compiler>
makeCimMlcCompiler(ChipConfig chip, bool referenceSearch)
{
    CmSwitchOptions options;
    options.segmenter.referenceSearch = referenceSearch;
    options.segmenter.useDp = false; // greedy max-fill segmentation
    options.segmenter.livenessAwareWriteback = true;
    options.segmenter.alloc.allowMemoryMode = false; // fixed compute mode
    options.segmenter.alloc.allowDuplication = true;
    options.segmenter.alloc.pipelined = true; // multi-grained pipelining
    return std::make_unique<CmSwitchCompiler>(std::move(chip), options,
                                              "cim-mlc");
}

} // namespace cmswitch
