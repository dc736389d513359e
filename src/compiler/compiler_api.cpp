#include "compiler/compiler_api.hpp"

#include "support/json.hpp"
#include "support/serialize.hpp"

namespace cmswitch {

void
LatencyBreakdown::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .field("total", total())
        .field("intra", intra)
        .field("writeback", writeback)
        .field("mode_switch", modeSwitch)
        .field("rewrite", rewrite)
        .endObject();
}

void
CompileResult::writeJson(JsonWriter &w) const
{
    w.beginObject()
        .field("model", program.modelName())
        .field("segments", numSegments())
        .field("avg_memory_array_ratio", avgMemoryArrayRatio())
        .field("switched_arrays", program.totalSwitchedArrays())
        .field("weight_load_bytes", program.totalWeightLoadBytes())
        .field("writeback_bytes", program.totalWritebackBytes());
    w.key("latency");
    latency.writeJson(w);
    w.endObject();
}

void
LatencyBreakdown::writeBinary(BinaryWriter &w) const
{
    w.writeS64(intra);
    w.writeS64(writeback);
    w.writeS64(modeSwitch);
    w.writeS64(rewrite);
}

LatencyBreakdown
LatencyBreakdown::readBinary(BinaryReader &r)
{
    LatencyBreakdown b;
    b.intra = r.readS64();
    b.writeback = r.readS64();
    b.modeSwitch = r.readS64();
    b.rewrite = r.readS64();
    return b;
}

void
CompileResult::writeBinary(BinaryWriter &w) const
{
    program.writeBinary(w);
    latency.writeBinary(w);
    w.writeF64(compileSeconds);
}

CompileResult
CompileResult::readBinary(BinaryReader &r)
{
    CompileResult result;
    result.program = MetaProgram::readBinary(r);
    result.latency = LatencyBreakdown::readBinary(r);
    result.compileSeconds = r.readF64();
    return result;
}

} // namespace cmswitch
