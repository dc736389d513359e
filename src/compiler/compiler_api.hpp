/**
 * @file
 * Common compiler interface shared by CMSwitch and the three baseline
 * compilers (PUMA / OCC / CIM-MLC), so every evaluation harness drives
 * them interchangeably.
 */

#ifndef CMSWITCH_COMPILER_COMPILER_API_HPP
#define CMSWITCH_COMPILER_COMPILER_API_HPP

#include <memory>
#include <string>

#include "arch/deha.hpp"
#include "graph/graph.hpp"
#include "metaop/program.hpp"

namespace cmswitch {

class BinaryReader;
class BinaryWriter;
class JsonWriter;

/** Latency breakdown of a compiled network (compiler estimates). */
struct LatencyBreakdown
{
    Cycles intra = 0;     ///< pipelined segment execution (Eq. 9/10)
    Cycles writeback = 0; ///< inter-segment data store/reload
    Cycles modeSwitch = 0;///< Eq. 1 dual-mode switching
    Cycles rewrite = 0;   ///< Eq. 2 weight (re)programming

    Cycles total() const { return intra + writeback + modeSwitch + rewrite; }

    /** Emit {"total", "intra", ...} as an object into @p w. */
    void writeJson(JsonWriter &w) const;

    /** @{ Exact binary round-trip for the persistent plan cache. */
    void writeBinary(BinaryWriter &w) const;
    static LatencyBreakdown readBinary(BinaryReader &r);
    /** @} */
};

/** Everything a compilation produces. */
struct CompileResult
{
    MetaProgram program;
    LatencyBreakdown latency;
    double compileSeconds = 0.0;

    Cycles totalCycles() const { return latency.total(); }
    s64 numSegments() const { return program.numSegments(); }
    double avgMemoryArrayRatio() const
    {
        return program.avgMemoryArrayRatio();
    }

    /**
     * Emit the content-deterministic view (segments, latency, ratios,
     * program traffic totals) as an object into @p w. Deliberately
     * excludes compileSeconds: report files must be byte-identical for
     * identical requests regardless of machine load or thread count.
     */
    void writeJson(JsonWriter &w) const;

    /** @{ Exact binary round-trip (including compileSeconds, which the
     *  JSON report deliberately omits). */
    void writeBinary(BinaryWriter &w) const;
    static CompileResult readBinary(BinaryReader &r);
    /** @} */
};

/**
 * Abstract DNN-to-CIM compiler.
 *
 * Thread-safety contract: compile() is const and implementations must
 * be safe to call concurrently on one instance — a compiler is
 * immutable after construction. The compile service relies on this to
 * share compiler instances across worker threads.
 */
class Compiler
{
  public:
    virtual ~Compiler() = default;

    /** Short identifier ("cmswitch", "cim-mlc", ...). */
    virtual std::string name() const = 0;

    /** Compile @p graph for the chip this compiler was built with. */
    virtual CompileResult compile(const Graph &graph) const = 0;
};

} // namespace cmswitch

#endif // CMSWITCH_COMPILER_COMPILER_API_HPP
