/**
 * @file
 * Wire protocol of the serve daemon: JSON-lines request parsing,
 * fatal-free request resolution, and the response renderers.
 *
 * One JSON object per line in each direction. Requests carry an "op":
 *
 *   compile   {"op":"compile","id":"r1","model":"resnet18", ...}
 *   status    {"op":"status","id":"s1"}          status report
 *   hold      {"op":"hold","id":"h1"}            pause dispatch
 *   release   {"op":"release","id":"h2"}         resume dispatch
 *   drain     {"op":"drain","id":"d1"}           ack once idle
 *   shutdown  {"op":"shutdown","id":"q1"}        ack, then exit
 *
 * Responses are compact one-line JSON stamped with
 * kServeResponseSchema (status reports with kServeStatusSchema) and
 * echo the request's "id". Full field tables live in docs/serving.md
 * and docs/schemas.md.
 *
 * The daemon must survive anything a client sends, so this layer
 * parses with the non-throwing support/json_parse.hpp and resolves
 * against explicit name tables: zoo models and preset chips only, every
 * failure a per-request error, never a fatal(). It is the one place
 * those names resolve: the CLI, batch job lines and the simulator use
 * the same tables. File-path models/chips are deliberately not accepted
 * over the wire; that also keeps a remote client from probing the
 * daemon's filesystem.
 */

#ifndef CMSWITCH_SERVICE_SERVE_SERVE_PROTOCOL_HPP
#define CMSWITCH_SERVICE_SERVE_SERVE_PROTOCOL_HPP

#include <string>

#include "service/compile_service.hpp"

namespace cmswitch {

class JsonWriter;

/** Schema tags of the two response document shapes. */
inline constexpr const char *kServeResponseSchema =
    "cmswitch-serve-response-v1";
inline constexpr const char *kServeStatusSchema =
    "cmswitch-serve-status-v3";

/** One parsed request line. */
struct ServeRequest
{
    enum class Op { kCompile, kStatus, kHold, kRelease, kDrain, kShutdown };

    Op op = Op::kCompile;
    std::string id; ///< echoed in every response; required for compile

    /** @{ compile fields (single-mode CLI semantics). */
    std::string model;
    std::string chip = "dynaplasia";
    std::string compiler = "cmswitch";
    s64 batch = 1;
    s64 seq = 64;
    s64 decodeKv = 0;
    s64 layers = 0;
    bool optimize = false;
    /** @} */

    /** Higher runs (and survives admission) first; default 0. */
    s64 priority = 0;

    /** Relative deadline from receipt; absent = none. A request still
     *  queued when it expires is shed without compiling. */
    bool hasDeadline = false;
    s64 deadlineMs = 0;
};

/**
 * Parse one request line. Strict: unknown ops, unknown keys,
 * wrong-typed or out-of-range values, and a missing/empty "id" on
 * compile all fail with a message. Never throws or fatals.
 */
bool parseServeRequest(const std::string &line, ServeRequest *out,
                       std::string *error);

/**
 * Resolve a parsed compile request into a CompileRequest (builds the
 * workload graph). Fails — never fatals — on names outside the zoo /
 * preset tables or invalid combinations (e.g. --decode on a CNN).
 */
bool resolveServeRequest(const ServeRequest &request, CompileRequest *out,
                         std::string *error);

/** @{ The chip and workload halves of resolveServeRequest, with its
 *  messages (@p error may be null): a preset chip, and the zoo workload
 *  the request's model, batch, seq, decode and layers describe. The CLI
 *  calls them for each name that is not a file path. */
bool resolveServeChip(const std::string &chip, ChipConfig *out,
                      std::string *error);
bool resolveServeWorkload(const ServeRequest &request, Graph *out,
                          std::string *error);
/** @} */

/** @{ The serve name tables (chip presets, compilers, zoo models +
 *  tiny-mlp), shared with the sim scenario parser so simulated and
 *  real requests resolve against exactly the same vocabulary. */
bool serveChipKnown(const std::string &chip);
bool serveCompilerKnown(const std::string &compiler);
bool serveModelKnown(const std::string &model);
bool serveModelIsTransformer(const std::string &model);
/** @} */

/** A finished compact (indent 0) document as one serve line: str()
 *  without its trailing '\n' — the transport adds the terminator. */
std::string serveLine(const JsonWriter &w);

/** @{ Response renderers (compact one-line JSON, no trailing \n). */
std::string renderServeAck(const std::string &id, const char *op);
std::string renderServeError(const std::string &id,
                             const std::string &message);
std::string renderServeShed(const std::string &id, const char *reason,
                            s64 queueDepth, s64 inflight);
std::string renderServeResult(const ServeRequest &request,
                              const CompileArtifact &artifact,
                              CacheOutcome outcome, bool coalesced,
                              const ServiceRequestLatency &latency);
/** @} */

} // namespace cmswitch

#endif // CMSWITCH_SERVICE_SERVE_SERVE_PROTOCOL_HPP
