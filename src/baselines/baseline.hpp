/**
 * @file
 * Baseline CIM compilers of the paper's evaluation (Sec. 5.1), realised
 * as restricted configurations of the shared scheduling engine so every
 * compiler prices its schedule through the identical cost model:
 *
 *  - PUMA (Ankit et al., ASPLOS'19): weight duplication, serial
 *    operator execution within a segment, naive full write-back.
 *  - OCC (Siemieniuk et al., TCAD'21): tiling/loop-unrolling mapping of
 *    single operators (serial, no duplication), buffer-aware
 *    write-back.
 *  - CIM-MLC (Qu et al., ASPLOS'24): multi-grained pipelining + weight
 *    duplication, liveness-aware write-back — the main baseline.
 *
 * All three treat every CIM array as a compute array (fixed mode),
 * which is precisely the assumption CMSwitch relaxes.
 */

#ifndef CMSWITCH_BASELINES_BASELINE_HPP
#define CMSWITCH_BASELINES_BASELINE_HPP

#include <memory>

#include "compiler/cmswitch_compiler.hpp"

namespace cmswitch {

/**
 * Every factory takes an optional @p referenceSearch switch: true
 * builds the compiler on the retained pre-optimization search stack
 * (SegmenterOptions::referenceSearch — reference DP, exact allocator
 * probes). The differential tests pin that both modes produce
 * byte-identical compile results across the scenario matrix.
 */

/** PUMA-style compiler over @p chip. */
std::unique_ptr<Compiler> makePumaCompiler(ChipConfig chip,
                                           bool referenceSearch = false);

/** OCC-style compiler over @p chip. */
std::unique_ptr<Compiler> makeOccCompiler(ChipConfig chip,
                                          bool referenceSearch = false);

/** CIM-MLC-style compiler over @p chip (the paper's main baseline). */
std::unique_ptr<Compiler> makeCimMlcCompiler(ChipConfig chip,
                                             bool referenceSearch = false);

/** The full CMSwitch compiler over @p chip. */
std::unique_ptr<Compiler> makeCmSwitchCompiler(ChipConfig chip,
                                               bool referenceSearch = false);

/** All four, in the paper's plotting order (Fig. 14). */
std::vector<std::unique_ptr<Compiler>> makeAllCompilers(const ChipConfig &chip);

/**
 * Compiler by registry id ("cmswitch", "cim-mlc", "occ", "puma");
 * fatals on unknown ids. The single name->factory mapping shared by
 * cmswitchc and the compile service.
 */
std::unique_ptr<Compiler> makeCompilerByName(const std::string &name,
                                             const ChipConfig &chip,
                                             bool referenceSearch = false);

} // namespace cmswitch

#endif // CMSWITCH_BASELINES_BASELINE_HPP
