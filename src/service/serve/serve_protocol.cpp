#include "service/serve/serve_protocol.hpp"

#include <limits>

#include "arch/chip_config.hpp"
#include "eval/evaluation.hpp"
#include "models/model_zoo.hpp"
#include "support/json.hpp"
#include "support/json_fields.hpp"
#include "support/json_parse.hpp"

namespace cmswitch {

namespace {

bool
isCnnName(const std::string &name)
{
    return name == "vgg16" || name == "resnet18" || name == "resnet50"
        || name == "mobilenetv2";
}

} // namespace

bool
serveChipKnown(const std::string &chip)
{
    return chip == "dynaplasia" || chip == "prime";
}

bool
serveCompilerKnown(const std::string &compiler)
{
    return compiler == "cmswitch" || compiler == "cim-mlc"
        || compiler == "occ" || compiler == "puma";
}

bool
serveModelIsTransformer(const std::string &model)
{
    return model == "bert-base" || model == "bert-large" || model == "gpt"
        || model == "llama2-7b" || model == "opt-6.7b"
        || model == "opt-13b";
}

bool
serveModelKnown(const std::string &model)
{
    return serveModelIsTransformer(model) || isCnnName(model)
        || model == "tiny-mlp";
}

bool
parseServeRequest(const std::string &line, ServeRequest *out,
                  std::string *error)
{
    JsonValue doc;
    if (!parseJson(line, &doc, error))
        return false;
    if (!doc.isObject())
        return jsonFail(error, "request must be a JSON object");

    *out = ServeRequest();
    std::string op;
    if (!jsonTakeString(doc, "op", &op, error))
        return false;
    if (op == "compile")
        out->op = ServeRequest::Op::kCompile;
    else if (op == "status")
        out->op = ServeRequest::Op::kStatus;
    else if (op == "hold")
        out->op = ServeRequest::Op::kHold;
    else if (op == "release")
        out->op = ServeRequest::Op::kRelease;
    else if (op == "drain")
        out->op = ServeRequest::Op::kDrain;
    else if (op == "shutdown")
        out->op = ServeRequest::Op::kShutdown;
    else if (op.empty())
        return jsonFail(error, "missing 'op'");
    else
        return jsonFail(error, "unknown op '" + op + "'");

    if (!jsonTakeString(doc, "id", &out->id, error))
        return false;

    // Strictness: a typo'd key must not silently compile something
    // other than what the client asked for.
    static constexpr const char *kCompileKeys[] = {
        "op",     "id",     "model",    "chip",        "compiler",
        "batch",  "seq",    "decode",   "layers",      "optimize",
        "priority", "deadline_ms",
    };
    for (const auto &[key, value] : doc.members) {
        bool known = false;
        for (const char *allowed : kCompileKeys)
            known = known || key == allowed;
        if (!known)
            return jsonFail(error, "unknown key '" + key + "'");
        if (out->op != ServeRequest::Op::kCompile && key != "op"
            && key != "id")
            return jsonFail(error, "'" + key + "' is only valid with "
                                       "op compile");
    }

    if (out->op != ServeRequest::Op::kCompile)
        return true;

    if (out->id.empty())
        return jsonFail(error, "compile requests need a non-empty 'id'");
    if (!jsonTakeString(doc, "model", &out->model, error)
        || !jsonTakeString(doc, "chip", &out->chip, error)
        || !jsonTakeString(doc, "compiler", &out->compiler, error)
        || !jsonTakeInt(doc, "batch", 1, &out->batch, nullptr, error)
        || !jsonTakeInt(doc, "seq", 1, &out->seq, nullptr, error)
        || !jsonTakeInt(doc, "decode", 0, &out->decodeKv, nullptr, error)
        || !jsonTakeInt(doc, "layers", 0, &out->layers, nullptr, error)
        || !jsonTakeBool(doc, "optimize", &out->optimize, error)
        || !jsonTakeInt(doc, "priority", std::numeric_limits<s64>::min(),
                    &out->priority, nullptr, error)
        || !jsonTakeInt(doc, "deadline_ms", 0, &out->deadlineMs,
                    &out->hasDeadline, error)) {
        return false;
    }
    if (out->model.empty())
        return jsonFail(error, "compile requests need a 'model'");
    return true;
}

bool
resolveServeRequest(const ServeRequest &request, CompileRequest *out,
                    std::string *error)
{
    if (request.chip == "dynaplasia")
        out->chip = ChipConfig::dynaplasia();
    else if (request.chip == "prime")
        out->chip = ChipConfig::prime();
    else
        return jsonFail(error, "unknown chip '" + request.chip
                                   + "' (serve accepts the presets "
                                     "dynaplasia and prime)");

    if (!serveCompilerKnown(request.compiler)) {
        return jsonFail(error,
                        "unknown compiler '" + request.compiler + "'");
    }
    out->compilerId = request.compiler;
    out->optimize = request.optimize;

    if (serveModelIsTransformer(request.model)) {
        TransformerConfig cfg = transformerConfigByName(request.model);
        if (request.layers > 0)
            cfg.layers = request.layers;
        out->workload =
            request.decodeKv > 0
                ? buildTransformerDecodeStep(cfg, request.batch,
                                             request.decodeKv)
                : buildTransformerPrefill(cfg, request.batch, request.seq);
        return true;
    }
    if (request.decodeKv > 0 || request.layers > 0) {
        return jsonFail(error, "'decode'/'layers' need a transformer "
                               "model, got '" + request.model + "'");
    }
    if (isCnnName(request.model)) {
        out->workload = buildModelByName(request.model, request.batch);
        return true;
    }
    if (request.model == "tiny-mlp") {
        out->workload = buildTinyMlp(request.batch);
        return true;
    }
    return jsonFail(error, "unknown model '" + request.model
                               + "' (serve accepts zoo model names and "
                                 "tiny-mlp, not file paths)");
}

std::string
serveLine(const JsonWriter &w)
{
    std::string line = w.str();
    line.pop_back();
    return line;
}

std::string
renderServeAck(const std::string &id, const char *op)
{
    JsonWriter w(0);
    w.beginObject()
        .field("schema", kServeResponseSchema)
        .field("id", id)
        .field("status", "ok")
        .field("op", op)
        .endObject();
    return serveLine(w);
}

std::string
renderServeError(const std::string &id, const std::string &message)
{
    JsonWriter w(0);
    w.beginObject()
        .field("schema", kServeResponseSchema)
        .field("id", id)
        .field("status", "error")
        .field("error", message)
        .endObject();
    return serveLine(w);
}

std::string
renderServeShed(const std::string &id, const char *reason, s64 queueDepth,
                s64 inflight)
{
    // The backpressure document: who was refused, why, and how loaded
    // the daemon was at that instant — enough for a client to back off
    // or escalate priority.
    JsonWriter w(0);
    w.beginObject()
        .field("schema", kServeResponseSchema)
        .field("id", id)
        .field("status", "shed")
        .field("reason", reason)
        .field("queue_depth", queueDepth)
        .field("inflight", inflight)
        .endObject();
    return serveLine(w);
}

std::string
renderServeResult(const ServeRequest &request,
                  const CompileArtifact &artifact, CacheOutcome outcome,
                  bool coalesced, const ServiceRequestLatency &latency)
{
    JsonWriter w(0);
    w.beginObject()
        .field("schema", kServeResponseSchema)
        .field("id", request.id)
        .field("status", "ok")
        .field("op", "compile")
        .field("model", artifact.result.program.modelName())
        .field("chip", artifact.chip.name)
        .field("compiler", artifact.compilerId)
        .field("key", artifact.key)
        .field("cache", cacheOutcomeName(outcome))
        .field("coalesced", coalesced)
        .field("valid", artifact.validation.ok())
        .field("segments", artifact.result.numSegments())
        .field("cycles", artifact.result.totalCycles())
        .field("memory_array_ratio",
               artifact.result.avgMemoryArrayRatio())
        .field("queue_wait_seconds", latency.queueWaitSeconds)
        .field("execute_seconds", latency.executeSeconds)
        .endObject();
    return serveLine(w);
}

} // namespace cmswitch
