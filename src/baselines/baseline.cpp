#include "baselines/baseline.hpp"

#include "support/logging.hpp"

namespace cmswitch {

std::unique_ptr<Compiler>
makeCmSwitchCompiler(ChipConfig chip, bool referenceSearch)
{
    CmSwitchOptions options;
    options.segmenter.referenceSearch = referenceSearch;
    return std::make_unique<CmSwitchCompiler>(std::move(chip), options,
                                              "cmswitch");
}

std::vector<std::unique_ptr<Compiler>>
makeAllCompilers(const ChipConfig &chip)
{
    std::vector<std::unique_ptr<Compiler>> out;
    out.push_back(makePumaCompiler(chip));
    out.push_back(makeOccCompiler(chip));
    out.push_back(makeCimMlcCompiler(chip));
    out.push_back(makeCmSwitchCompiler(chip));
    return out;
}

std::unique_ptr<Compiler>
makeCompilerByName(const std::string &name, const ChipConfig &chip,
                   bool referenceSearch)
{
    if (name == "cmswitch")
        return makeCmSwitchCompiler(chip, referenceSearch);
    if (name == "cim-mlc")
        return makeCimMlcCompiler(chip, referenceSearch);
    if (name == "occ")
        return makeOccCompiler(chip, referenceSearch);
    if (name == "puma")
        return makePumaCompiler(chip, referenceSearch);
    cmswitch_fatal("unknown compiler '", name, "'");
}

} // namespace cmswitch
