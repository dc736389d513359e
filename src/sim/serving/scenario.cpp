#include "sim/serving/scenario.hpp"

#include <limits>

#include "service/serve/serve_protocol.hpp"
#include "support/json_fields.hpp"
#include "support/json_parse.hpp"

namespace cmswitch {

namespace {

/** Reject keys outside @p allowed (strictness: a typo'd key must not
 *  silently simulate something other than what was asked for). */
bool
checkKeys(const JsonValue &object, const char *const *allowed,
          std::size_t allowedCount, const char *where, std::string *error)
{
    for (const auto &[key, value] : object.members) {
        bool known = false;
        for (std::size_t i = 0; i < allowedCount; ++i)
            known = known || key == allowed[i];
        if (!known)
            return jsonFail(error, std::string("unknown key '") + key
                                       + "' in " + where);
    }
    return true;
}

bool
parseChipSpec(const JsonValue &doc, std::size_t index, SimChipSpec *out,
              std::string *error)
{
    const char *where = "chips entry";
    if (!doc.isObject())
        return jsonFail(error, "chips entries must be objects");
    static constexpr const char *kKeys[] = {"chip", "count", "clock_ghz"};
    if (!checkKeys(doc, kKeys, std::size(kKeys), where, error))
        return false;
    if (!jsonTakeString(doc, "chip", &out->preset, error)
        || !jsonTakeInt(doc, "count", 1, &out->count, nullptr, error)
        || !jsonTakeDouble(doc, "clock_ghz", 0.0, &out->clockGhz, nullptr,
                           error)) {
        return false;
    }
    if (!serveChipKnown(out->preset))
        return jsonFail(error, "chips[" + std::to_string(index)
                                   + "]: unknown chip '" + out->preset
                                   + "' (presets: dynaplasia, prime)");
    if (!(out->clockGhz > 0.0))
        return jsonFail(error, "chips[" + std::to_string(index)
                                   + "]: 'clock_ghz' must be > 0");
    return true;
}

bool
parseWorkloadSpec(const JsonValue &doc, std::size_t index,
                  SimWorkloadSpec *out, std::string *error)
{
    std::string where = "workloads[" + std::to_string(index) + "]";
    if (!doc.isObject())
        return jsonFail(error, "workloads entries must be objects");
    static constexpr const char *kKeys[] = {
        "name",     "model",  "compiler",    "batch",
        "seq",      "layers", "optimize",    "weight",
        "priority", "deadline_ms", "kv_buckets", "kv_min",
        "kv_max",
    };
    if (!checkKeys(doc, kKeys, std::size(kKeys), "workloads entry",
                   error))
        return false;
    bool kvMaxPresent = false;
    if (!jsonTakeString(doc, "name", &out->name, error)
        || !jsonTakeString(doc, "model", &out->model, error)
        || !jsonTakeString(doc, "compiler", &out->compiler, error)
        || !jsonTakeInt(doc, "batch", 1, &out->batch, nullptr, error)
        || !jsonTakeInt(doc, "seq", 1, &out->seq, nullptr, error)
        || !jsonTakeInt(doc, "layers", 0, &out->layers, nullptr, error)
        || !jsonTakeBool(doc, "optimize", &out->optimize, error)
        || !jsonTakeDouble(doc, "weight", 0.0, &out->weight, nullptr,
                           error)
        || !jsonTakeInt(doc, "priority",
                        std::numeric_limits<s64>::min(), &out->priority,
                        nullptr, error)
        || !jsonTakeInt(doc, "deadline_ms", 0, &out->deadlineMs,
                        &out->hasDeadline, error)
        || !jsonTakeIntArray(doc, "kv_buckets", 1, &out->kvBuckets,
                             error)
        || !jsonTakeInt(doc, "kv_min", 1, &out->kvMin, nullptr, error)
        || !jsonTakeInt(doc, "kv_max", 1, &out->kvMax, &kvMaxPresent,
                        error)) {
        return false;
    }
    if (out->model.empty())
        return jsonFail(error, where + ": 'model' is required");
    if (!serveModelKnown(out->model))
        return jsonFail(error, where + ": unknown model '" + out->model
                                   + "' (zoo model names and tiny-mlp "
                                     "only, not file paths)");
    if (!serveCompilerKnown(out->compiler))
        return jsonFail(error, where + ": unknown compiler '"
                                   + out->compiler + "'");
    if (!(out->weight > 0.0))
        return jsonFail(error, where + ": 'weight' must be > 0");
    if (out->name.empty())
        out->name = out->model;
    if (out->kvBuckets.empty()) {
        if (doc.find("kv_min") || kvMaxPresent)
            return jsonFail(error, where + ": 'kv_min'/'kv_max' need "
                                       "'kv_buckets'");
        return true;
    }
    if (!serveModelIsTransformer(out->model))
        return jsonFail(error, where + ": 'kv_buckets' needs a "
                                   "transformer model, got '"
                                   + out->model + "'");
    for (std::size_t i = 1; i < out->kvBuckets.size(); ++i) {
        if (out->kvBuckets[i] <= out->kvBuckets[i - 1])
            return jsonFail(error, where + ": 'kv_buckets' must be "
                                       "strictly increasing");
    }
    if (!kvMaxPresent)
        out->kvMax = out->kvBuckets.back();
    if (out->kvMax > out->kvBuckets.back())
        return jsonFail(error, where + ": 'kv_max' exceeds the largest "
                                   "bucket");
    if (out->kvMin > out->kvMax)
        return jsonFail(error, where + ": 'kv_min' must be <= 'kv_max'");
    return true;
}

bool
parseArrivalSpec(const JsonValue &doc, SimArrivalSpec *out,
                 std::string *error)
{
    if (!doc.isObject())
        return jsonFail(error, "'arrival' must be an object");
    static constexpr const char *kKeys[] = {
        "process",
        "rate_per_second",
        "burst_rate_per_second",
        "mean_burst_seconds",
        "mean_idle_seconds",
        "times_seconds",
    };
    if (!checkKeys(doc, kKeys, std::size(kKeys), "'arrival'", error))
        return false;
    std::string process;
    if (!jsonTakeString(doc, "process", &process, error))
        return false;
    if (process == "poisson")
        out->process = SimArrivalSpec::Process::kPoisson;
    else if (process == "onoff")
        out->process = SimArrivalSpec::Process::kOnOff;
    else if (process == "trace")
        out->process = SimArrivalSpec::Process::kTrace;
    else if (process.empty())
        return jsonFail(error, "'arrival' needs a 'process'");
    else
        return jsonFail(error, "unknown arrival process '" + process
                                   + "' (poisson, onoff, trace)");
    if (!jsonTakeDouble(doc, "rate_per_second", 0.0, &out->ratePerSecond,
                        nullptr, error)
        || !jsonTakeDouble(doc, "burst_rate_per_second", 0.0,
                           &out->burstRatePerSecond, nullptr, error)
        || !jsonTakeDouble(doc, "mean_burst_seconds", 0.0,
                           &out->meanBurstSeconds, nullptr, error)
        || !jsonTakeDouble(doc, "mean_idle_seconds", 0.0,
                           &out->meanIdleSeconds, nullptr, error)
        || !jsonTakeDoubleArray(doc, "times_seconds", 0.0,
                                &out->timesSeconds, error)) {
        return false;
    }

    switch (out->process) {
    case SimArrivalSpec::Process::kPoisson:
        if (!(out->ratePerSecond > 0.0))
            return jsonFail(error, "poisson arrivals need "
                                   "'rate_per_second' > 0");
        break;
    case SimArrivalSpec::Process::kOnOff:
        if (!(out->burstRatePerSecond > 0.0)
            || !(out->meanBurstSeconds > 0.0)
            || !(out->meanIdleSeconds > 0.0)) {
            return jsonFail(error,
                            "onoff arrivals need 'burst_rate_per_"
                            "second', 'mean_burst_seconds' and "
                            "'mean_idle_seconds' all > 0");
        }
        break;
    case SimArrivalSpec::Process::kTrace:
        if (out->timesSeconds.empty())
            return jsonFail(error, "trace arrivals need a non-empty "
                                   "'times_seconds'");
        for (std::size_t i = 1; i < out->timesSeconds.size(); ++i) {
            if (out->timesSeconds[i] < out->timesSeconds[i - 1])
                return jsonFail(error, "'times_seconds' must be sorted "
                                       "ascending");
        }
        break;
    }
    return true;
}

} // namespace

bool
parseSimScenario(const std::string &text, SimScenario *out,
                 std::string *error)
{
    JsonValue doc;
    if (!parseJson(text, &doc, error))
        return false;
    if (!doc.isObject())
        return jsonFail(error, "scenario must be a JSON object");

    *out = SimScenario();
    static constexpr const char *kKeys[] = {
        "schema",    "name",  "seed",       "duration_seconds",
        "max_queue", "discipline", "arrival", "chips",
        "workloads",
    };
    if (!checkKeys(doc, kKeys, std::size(kKeys), "scenario", error))
        return false;

    std::string schema;
    if (!jsonTakeString(doc, "schema", &schema, error))
        return false;
    if (schema != kSimScenarioSchema)
        return jsonFail(error, std::string("scenario 'schema' must be "
                                           "\"")
                                   + kSimScenarioSchema + "\"");

    s64 seed = 1;
    std::string discipline = "priority";
    if (!jsonTakeString(doc, "name", &out->name, error)
        || !jsonTakeInt(doc, "seed", 0, &seed, nullptr, error)
        || !jsonTakeDouble(doc, "duration_seconds", 0.0,
                           &out->durationSeconds, nullptr, error)
        || !jsonTakeInt(doc, "max_queue", 1, &out->maxQueue, nullptr,
                        error)
        || !jsonTakeString(doc, "discipline", &discipline, error)) {
        return false;
    }
    out->seed = static_cast<u64>(seed);
    if (discipline == "fifo")
        out->fifo = true;
    else if (discipline != "priority")
        return jsonFail(error, "unknown discipline '" + discipline
                                   + "' (fifo, priority)");

    const JsonValue *arrival = doc.find("arrival");
    if (!arrival)
        return jsonFail(error, "scenario needs an 'arrival' object");
    if (!parseArrivalSpec(*arrival, &out->arrival, error))
        return false;
    if (out->arrival.process != SimArrivalSpec::Process::kTrace
        && !(out->durationSeconds > 0.0)) {
        return jsonFail(error, "scenario needs 'duration_seconds' > 0 "
                               "(trace replay derives it instead)");
    }

    const JsonValue *chips = doc.find("chips");
    if (!chips || !chips->isArray() || chips->items.empty())
        return jsonFail(error, "scenario needs a non-empty 'chips' "
                               "array");
    out->chips.clear();
    s64 instances = 0;
    for (std::size_t i = 0; i < chips->items.size(); ++i) {
        SimChipSpec spec;
        if (!parseChipSpec(chips->items[i], i, &spec, error))
            return false;
        // The simulator holds state per instance, so an unbounded count
        // would allocate without limit before the first event.
        if (spec.count > kSimMaxFleetInstances - instances)
            return jsonFail(error,
                            "chips[" + std::to_string(i) + "]: 'count' "
                                + std::to_string(spec.count)
                                + " takes the fleet past "
                                + std::to_string(kSimMaxFleetInstances)
                                + " instances");
        instances += spec.count;
        out->chips.push_back(std::move(spec));
    }

    const JsonValue *workloads = doc.find("workloads");
    if (!workloads || !workloads->isArray() || workloads->items.empty())
        return jsonFail(error, "scenario needs a non-empty 'workloads' "
                               "array");
    out->workloads.clear();
    for (std::size_t i = 0; i < workloads->items.size(); ++i) {
        SimWorkloadSpec spec;
        if (!parseWorkloadSpec(workloads->items[i], i, &spec, error))
            return false;
        for (const SimWorkloadSpec &earlier : out->workloads) {
            if (earlier.name == spec.name)
                return jsonFail(error, "duplicate workload name '"
                                           + spec.name + "'");
        }
        out->workloads.push_back(std::move(spec));
    }
    return true;
}

} // namespace cmswitch
