/**
 * @file
 * cmswitchc — command-line driver for the CMSwitch compiler.
 *
 * Modes:
 *   cmswitchc --model ... [options]   single compile (the classic CLI)
 *   cmswitchc batch --jobs FILE ...   many compiles through the
 *                                     thread-pooled compile service
 *   cmswitchc serve [options]         long-lived compile daemon over
 *                                     stdin/stdout or a Unix socket
 *                                     (docs/serving.md)
 *   cmswitchc sim --scenario FILE     discrete-event serving
 *                                     simulator: compiled plans under
 *                                     traffic (docs/simulation.md)
 *   cmswitchc cache <gc|stats|verify> lifecycle maintenance of a
 *                                     --cache-dir plan directory
 *   cmswitchc fingerprint             plan fingerprint + algorithm
 *                                     revision table as JSON
 *
 * Every mode, and each line of a batch jobs file, parses through one
 * flag table (flagTable) that says which modes accept each flag; rules
 * across flags are plain checks in each mode's main. Names resolve
 * through the serve daemon's fatal-free resolver (serve_protocol.hpp),
 * so every mode accepts the same names; a model that names an existing
 * file (not a directory) is parsed from it first, and a chip that is
 * not a preset is parsed from its file.
 *
 * Flags, defaults and examples live in the kUsage text below, printed
 * by `cmswitchc --help` in every mode. Running without arguments
 * prints the same text and exits with status 2, as does any malformed
 * invocation; semantic errors (unknown model/chip) exit 1 via fatal().
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <variant>
#include <vector>

#include "arch/chip_parser.hpp"
#include "graph/serialize.hpp"
#include "metaop/printer.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "service/artifact_io.hpp"
#include "service/cache_maintenance.hpp"
#include "service/compile_service.hpp"
#include "service/disk_plan_cache.hpp"
#include "service/json_report.hpp"
#include "service/plan_fingerprint.hpp"
#include "service/serve/serve_engine.hpp"
#include "service/serve/serve_io.hpp"
#include "service/serve/serve_protocol.hpp"
#include "sim/serving/scenario.hpp"
#include "sim/serving/simulator.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "support/strings.hpp"

#ifndef CMSWITCH_VERSION
#define CMSWITCH_VERSION "dev"
#endif

namespace cmswitch {
namespace {

const char kUsage[] =
    R"(usage: cmswitchc --model <zoo-name | file.graph> [options]
       cmswitchc batch --jobs <file> --out-dir <dir> [batch options]
       cmswitchc serve [--socket <path>] [serve options]
       cmswitchc serve --connect <path> --script <file>
       cmswitchc sim --scenario <file> [sim options]
       cmswitchc cache <gc|stats|verify> --cache-dir <dir> [cache options]
       cmswitchc fingerprint

Compile a DNN for a dual-mode CIM chip and report the schedule.

Options:
  --model NAME|FILE   zoo model name (vgg16, resnet18, resnet50,
                      mobilenetv2, tiny-mlp, bert-base, bert-large,
                      gpt, llama2-7b, opt-6.7b, opt-13b) or a path to
                      a textual graph file (graph/serialize.hpp format)
  --chip NAME|FILE    dynaplasia (default), prime, or a chip
                      description file (arch/chip_parser.hpp format)
  --compiler NAME     cmswitch (default), cim-mlc, occ, puma
  --batch N           batch size for zoo models (default 1)
  --seq N             sequence length for transformers (default 64)
  --decode N          compile a decode step with kv length N instead
                      of a prefill pass (transformer models only)
  --layers N          override the layer count (transformer models
                      only)
  --optimize          run the frontend graph passes before compiling
  --out FILE          write the meta-operator program to FILE
  --emit-json FILE    write the machine-readable compile report to
                      FILE (schema: docs/schemas.md)
  --cache-dir DIR     persistent plan cache: reuse a previously
                      compiled plan for this exact request from DIR
                      (cmswitch-plan-v1 artifact files, shared across
                      processes) and store fresh compiles back
  --stats             print only the latency/energy breakdown, not
                      the program (--out FILE still writes it)
  --trace FILE        record the compile pipeline (frontend passes,
                      segmenter DP, allocator probes, solver calls,
                      cache lookups) and write a Chrome
                      trace-event JSON to FILE; open it in
                      chrome://tracing or https://ui.perfetto.dev.
                      Plans are byte-identical with or without tracing
  --metrics FILE      write a JSON metrics snapshot (counters, gauges
                      and per-phase latency quantiles) to FILE.
                      --trace/--metrics also add an "observability"
                      section to --emit-json reports
  --help              print this message and exit
  --version           print version + plan fingerprint and exit

Batch mode compiles one job per line of the jobs file through a worker
pool with a shared content-keyed plan cache, writing one JSON report per
job plus an aggregate summary. A job line takes exactly the per-compile
flags above (--model, --chip, --compiler, --batch, --seq, --decode,
--layers, --optimize); '#' starts a comment. Batch flags:
  --jobs FILE            job list (required)
  --out-dir DIR          directory for per-job reports (required)
  --threads N            worker threads (default 1)
  --summary FILE         summary path (default: <out-dir>/summary.json)
  --cache-capacity N     compiled plans kept in memory (default 256)
  --cache-dir DIR        persistent plan cache shared with other runs
                         (lookups go memory -> disk -> compile)
  --trace FILE           one Chrome trace-event JSON covering every
                         job; service workers appear as separate trace
                         threads
  --job-latency          add each job's queue-wait/execute split to its
                         report (the same "observability"."request"
                         section serve responses and single-mode
                         --metrics reports carry). Off by default:
                         timing fields make per-job reports
                         non-byte-comparable across runs

Serve mode runs a long-lived compile daemon: one JSON request object
per line in, one JSON response line per request out (protocol and
schemas: docs/serving.md). Requests carry priorities and deadlines; a
max-in-flight admission gate sheds overload with explicit backpressure
responses, duplicate in-flight requests coalesce onto one compile, and
a status op reports cumulative latency quantiles and cache
outcomes (periodic --status-every lines add interval deltas):
  --socket PATH          listen on a Unix-domain socket; without it the
                         daemon serves one session on stdin/stdout
  --pid-file FILE        write the daemon pid once the socket is
                         listening (the file doubles as the readiness
                         signal for scripts; --socket only)
  --max-inflight N       concurrent compiles (default 1)
  --max-queue N          admitted requests waiting behind them
                         (default 16); an arriving request beyond this
                         either evicts a strictly lower-priority entry
                         or is shed with a backpressure response
  --status-every N       emit a status line to stderr every N completed
                         compiles (default 0 = off)
  --cache-capacity N     compiled plans kept in memory (default 256)
  --cache-dir DIR        persistent plan cache; lookups go memory ->
                         disk -> cold and responses say which step
                         served them
  --trace FILE           Chrome trace-event JSON covering the whole
                         serve run, written on exit
  --metrics FILE         JSON metrics snapshot written on exit
  --connect PATH         client mode: connect to a serving daemon,
                         send the --script request lines ('#' comments
                         and blanks skipped), print every response
  --script FILE          request lines for --connect (required with it)

Sim mode runs the discrete-event serving simulator: a scenario file
(cmswitch-sim-scenario-v1, see docs/simulation.md) describes a fleet
of CIM chips, a workload mix and an open-loop arrival process; the
report (cmswitch-sim-v1) carries throughput, latency quantiles,
per-chip utilization and mode-switch counts. Runs are deterministic:
all randomness comes from the scenario's seed, for any --threads:
  --scenario FILE        scenario config (required)
  --out FILE             write the report to FILE (default stdout)
  --threads N            plan-table compile threads (default 1; the
                         event loop itself is single-threaded)

Cache mode maintains a --cache-dir populated by earlier runs; every
verb prints a JSON report to stdout:
  cache gc --cache-dir DIR --max-bytes N [--max-age SEC]
                         delete the least-recently-used artifacts (by
                         file mtime; hits refresh it) until the *.plan
                         bytes fit under N; --max-age SEC first expires
                         artifacts unused for longer than SEC seconds.
                         At least one bound is required. Orphaned
                         writer temp files are reaped; the stats
                         sidecar is never deleted
  cache stats --cache-dir DIR
                         cross-process lifetime hit/miss/store/reject
                         totals (the cache-stats.sidecar file), plan
                         file count/bytes, and the build fingerprint
  cache verify --cache-dir DIR [--delete]
                         validate every artifact envelope, digest and
                         embedded key; --delete removes damaged files;
                         exits 1 when damaged files remain

Fingerprint mode prints the build's plan fingerprint — the digest that
keys --cache-dir compatibility — plus the per-pass algorithm revision
table behind it, as JSON on stdout:
  cmswitchc fingerprint

Examples:
  cmswitchc --model opt-6.7b --decode 512 --layers 2 --stats
  cmswitchc --model vgg16 --compiler cim-mlc --out vgg16.cmprog
  cmswitchc --model resnet18 --emit-json resnet18.json --stats
  cmswitchc --model bert-base --stats --trace bert.trace.json
  cmswitchc batch --jobs jobs.txt --threads 4 --out-dir reports/
  cmswitchc serve --socket /tmp/cmswitch.sock --max-inflight 2 \
      --pid-file /tmp/cmswitch.pid --cache-dir plans/
  cmswitchc serve --connect /tmp/cmswitch.sock --script requests.txt
  cmswitchc sim --scenario traffic.json --out sim-report.json
  cmswitchc cache gc --cache-dir plans/ --max-bytes 104857600
)";

/** CLI usage error: complain, point at --help, exit 2 (not a crash). */
[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "cmswitchc: error: " << message << "\n"
              << "run 'cmswitchc --help' for usage\n";
    std::exit(2);
}

/** Where a flag may appear: one bit per subcommand (one per cache
 *  verb), plus the bare command line and a batch job line. */
enum Mode : unsigned
{
    kSingle = 1u << 0,
    kJobLine = 1u << 1,
    kBatch = 1u << 2,
    kServe = 1u << 3,
    kSim = 1u << 4,
    kCacheGc = 1u << 5,
    kCacheStats = 1u << 6,
    kCacheVerify = 1u << 7,
    kFingerprint = 1u << 8,
};
constexpr unsigned kCompile = kSingle | kJobLine;
constexpr unsigned kCache = kCacheGc | kCacheStats | kCacheVerify;

/** Every mode's flags. A mode reads only the fields its flags set, so
 *  each default here is the one kUsage documents. */
struct Options
{
    /** The eight per-compile fields (--model through --optimize), in
     *  the daemon's request type so names resolve the same way. */
    ServeRequest compile;
    std::string outFile;
    std::string emitJson;
    std::string cacheDir;
    std::string traceFile;
    std::string metricsFile;
    std::string jobsFile;
    std::string outDir;
    std::string summaryFile;
    std::string socketPath;
    std::string pidFile;
    std::string connectPath;
    std::string scriptFile;
    std::string scenarioFile;
    s64 threads = 1;
    s64 cacheCapacity = 256;
    s64 maxInflight = 1;
    s64 maxQueue = 16;
    s64 statusEvery = 0;
    s64 maxBytes = -1; ///< cache gc bounds; -1 = not given
    s64 maxAge = -1;
    bool statsOnly = false;
    bool jobLatency = false;
    bool deleteDamaged = false;
    bool help = false;
    bool version = false;
};

/** One row of the flag table. The target's type is the value kind:
 *  text, an integer of at least @p min, or a switch. */
struct Flag
{
    const char *name;
    unsigned modes; ///< Mode bits that accept the flag
    std::variant<std::string *, s64 *, bool *> target;
    s64 min = 0;
};

/** The flag table: every flag of every mode, pointing into @p o. */
std::vector<Flag>
flagTable(Options &o)
{
    ServeRequest &c = o.compile;
    constexpr unsigned kSubcommands = kBatch | kServe | kSim | kCache
                                      | kFingerprint;
    return {
        {"--model", kCompile, &c.model},
        {"--chip", kCompile, &c.chip},
        {"--compiler", kCompile, &c.compiler},
        {"--batch", kCompile, &c.batch, 1},
        {"--seq", kCompile, &c.seq, 1},
        {"--decode", kCompile, &c.decodeKv, 0}, // 0 = prefill
        {"--layers", kCompile, &c.layers, 0}, // 0 = zoo's count
        {"--optimize", kCompile, &c.optimize},
        {"--out", kSingle | kSim, &o.outFile},
        {"--emit-json", kSingle, &o.emitJson},
        {"--stats", kSingle, &o.statsOnly},
        {"--version", kSingle, &o.version},
        {"--help", kSingle | kSubcommands, &o.help},
        {"--cache-dir", kSingle | kBatch | kServe | kCache, &o.cacheDir},
        {"--trace", kSingle | kBatch | kServe, &o.traceFile},
        {"--metrics", kSingle | kServe, &o.metricsFile},
        {"--jobs", kBatch, &o.jobsFile},
        {"--out-dir", kBatch, &o.outDir},
        {"--summary", kBatch, &o.summaryFile},
        {"--threads", kBatch | kSim, &o.threads, 1},
        {"--cache-capacity", kBatch | kServe, &o.cacheCapacity, 1},
        {"--job-latency", kBatch, &o.jobLatency},
        {"--socket", kServe, &o.socketPath},
        {"--pid-file", kServe, &o.pidFile},
        {"--connect", kServe, &o.connectPath},
        {"--script", kServe, &o.scriptFile},
        {"--max-inflight", kServe, &o.maxInflight, 1},
        {"--max-queue", kServe, &o.maxQueue, 1},
        {"--status-every", kServe, &o.statusEvery, 0},
        {"--scenario", kSim, &o.scenarioFile},
        {"--max-bytes", kCacheGc, &o.maxBytes, 0},
        {"--max-age", kCacheGc, &o.maxAge, 0},
        {"--delete", kCacheVerify, &o.deleteDamaged},
    };
}

/** How an unknown-flag error names @p mode: "unknown <words>flag". */
const char *
modeWords(Mode mode)
{
    switch (mode) {
    case kBatch: return "batch ";
    case kServe: return "serve ";
    case kSim: return "sim ";
    case kCacheGc: return "cache gc ";
    case kCacheStats: return "cache stats ";
    case kCacheVerify: return "cache verify ";
    case kFingerprint: return "fingerprint ";
    default: return ""; // the command line and job lines
    }
}

/** "<context>: <msg>", or just @p msg for the bare command line. */
std::string
inContext(const std::string &context, const std::string &msg)
{
    return context.empty() ? msg : context + ": " + msg;
}

/** Parse @p value as an integer >= @p min_value; usage error naming
 *  @p flag (and @p context) otherwise. */
s64
parseIntToken(const std::string &flag, const std::string &value,
              s64 min_value, const std::string &context)
{
    s64 parsed = 0;
    try {
        size_t used = 0;
        parsed = std::stoll(value, &used);
        if (used != value.size())
            throw std::invalid_argument(value);
    } catch (const std::exception &) {
        usageError(inContext(context, flag + " needs an integer, got '"
                                          + value + "'"));
    }
    if (parsed < min_value)
        usageError(inContext(context,
                             flag + " must be >= "
                                 + std::to_string(min_value) + ", got "
                                 + value));
    return parsed;
}

/**
 * Parse @p tokens as @p mode's flags. @p context names the source in
 * errors ("" for the command line, "<file> line N" for a job line).
 * --help and --version act as soon as they are read. The two compile
 * modes share one rule, checked here: --model is required. Every other
 * mode checks its rules in its own main.
 */
Options
parseArgs(Mode mode, const std::vector<std::string> &tokens,
          const std::string &context)
{
    Options opts;
    const std::vector<Flag> table = flagTable(opts);
    for (std::size_t i = 0;
         i < tokens.size() && !opts.help && !opts.version; ++i) {
        const std::string &name = tokens[i];
        auto row = std::find_if(table.begin(), table.end(),
                                [&](const Flag &flag) {
                                    return (flag.modes & mode)
                                        && name == flag.name;
                                });
        if (row == table.end())
            usageError(inContext(context, concat("unknown ",
                                                 modeWords(mode), "flag '",
                                                 name, "'")));
        if (bool *const *on = std::get_if<bool *>(&row->target)) {
            **on = true;
            continue;
        }
        if (i + 1 >= tokens.size())
            usageError(inContext(context, name + " needs a value"));
        const std::string &value = tokens[++i];
        if (std::string *const *text =
                std::get_if<std::string *>(&row->target))
            **text = value;
        else
            *std::get<s64 *>(row->target) =
                parseIntToken(name, value, row->min, context);
    }
    if (opts.help) {
        std::cout << kUsage;
        std::exit(0);
    }
    if (opts.version) {
        std::cout << "cmswitchc " << CMSWITCH_VERSION << "\n"
                  << "plan fingerprint " << buildFingerprintHex() << "\n";
        std::exit(0);
    }
    if ((mode & kCompile) && opts.compile.model.empty())
        usageError(inContext(context, "--model is required"));
    return opts;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    cmswitch_fatal_if(!in, "cannot open ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** True when @p path names something to read that is not a directory:
 *  a regular file, a FIFO or /dev/stdin. */
bool
fileExists(const std::string &path)
{
    std::error_code ec;
    std::filesystem::file_status st = std::filesystem::status(path, ec);
    return std::filesystem::exists(st) && !std::filesystem::is_directory(st);
}

/** The chip @p name: a preset, else a chip file. A preset name never
 *  touches the filesystem, so a file or directory called `prime` in
 *  the working directory cannot shadow the preset. */
ChipConfig
resolveChip(const std::string &name, const std::string &context)
{
    ChipConfig chip;
    if (resolveServeChip(name, &chip, nullptr))
        return chip;
    cmswitch_fatal_if(!fileExists(name),
                      inContext(context, concat("unknown chip '", name,
                                                "' (not a preset, not a "
                                                "file)")));
    return parseChipConfig(readFile(name));
}

/**
 * Fill @p out from @p compile, except a zoo workload: then return
 * false, leaving it to the fatal-free resolveServeWorkload. Like
 * resolveChip this may fatal() — on unknown names (reported with
 * @p context) and in the graph-file parser — so it runs on the main
 * thread.
 */
bool
prepareRequest(const ServeRequest &compile, const std::string &context,
               CompileRequest *out)
{
    cmswitch_fatal_if(!serveCompilerKnown(compile.compiler),
                      inContext(context, concat("unknown compiler '",
                                                compile.compiler, "'")));
    out->compilerId = compile.compiler;
    out->optimize = compile.optimize;
    if (fileExists(compile.model)) {
        out->workload = parseGraph(readFile(compile.model));
        return true;
    }
    cmswitch_fatal_if(!serveModelKnown(compile.model),
                      inContext(context, concat("unknown model '",
                                                compile.model,
                                                "' (not a zoo name, not a "
                                                "file)")));
    return false;
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    cmswitch_fatal_if(!out, "cannot write ", path);
    out << text;
}

/** Lowercase token safe for file names: non-alnum squashed to '-'. */
std::string
sanitizeToken(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "job" : out;
}

/**
 * Owns a --trace/--metrics observability session: installs the
 * registry/recorder pair into the process-wide obs hooks for the
 * duration of the run, then writes the requested files. When neither
 * a trace nor metrics are asked for nothing is installed and every
 * obs:: call in the pipeline stays a single disabled-branch.
 */
struct ObsSession
{
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::TraceRecorder> recorder;

    void start(const std::string &trace_file, bool metrics)
    {
        if (trace_file.empty() && !metrics)
            return;
        registry = std::make_unique<obs::MetricsRegistry>();
        if (!trace_file.empty()) {
            recorder = std::make_unique<obs::TraceRecorder>();
            recorder->setThreadName("main");
        }
        obs::install(registry.get(), recorder.get());
    }

    /** Uninstall and write the output files; safe to call when start()
     *  was a no-op. Must run before the recorder/registry die. */
    void finish(const std::string &trace_file,
                const std::string &metrics_file)
    {
        if (!registry)
            return;
        obs::uninstall();
        if (recorder) {
            writeTextFile(trace_file, recorder->exportJson());
            std::cerr << "cmswitchc: trace written to " << trace_file
                      << " (" << recorder->eventCount() << " event(s)";
            if (recorder->droppedEvents() > 0)
                std::cerr << ", " << recorder->droppedEvents()
                          << " dropped";
            std::cerr << ")\n";
        }
        if (!metrics_file.empty()) {
            writeTextFile(metrics_file, registry->snapshotJson());
            std::cerr << "cmswitchc: metrics written to " << metrics_file
                      << "\n";
        }
    }
};

int
singleMain(const Options &args)
{
    ObsSession session;
    session.start(args.traceFile, !args.metricsFile.empty());

    // The passes run inside compileArtifact (driven by request.optimize)
    // so a single-mode compile and the identical batch job line hash to
    // the same request key.
    CompileRequest request;
    request.chip = resolveChip(args.compile.chip, "");
    std::string error;
    if (!prepareRequest(args.compile, "", &request)
        && !resolveServeWorkload(args.compile, &request.workload, &error))
        cmswitch_fatal(error);

    ArtifactPtr artifact;
    auto executeStart = std::chrono::steady_clock::now();
    if (args.cacheDir.empty()) {
        artifact = compileArtifact(request);
    } else {
        // Persistent plan cache: a prior run of any process with this
        // --cache-dir and the same request key supplies the plan.
        DiskPlanCache disk(args.cacheDir);
        std::string key = requestKey(request);
        artifact = disk.load(key);
        if (artifact) {
            std::cerr << "cmswitchc: plan cache disk hit (" << key
                      << ") in " << disk.directory() << "\n";
        } else {
            artifact = compileArtifact(request, key);
            disk.store(key, artifact);
            std::cerr << "cmswitchc: plan cache miss; stored " << key
                      << " in " << disk.directory() << "\n";
        }
    }
    // Same queue-wait/execute split the serve daemon and batch jobs
    // report; single mode has no queue, so the wait is identically 0.
    ServiceRequestLatency latency;
    latency.executeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - executeStart)
            .count();
    if (args.compile.optimize) {
        std::cerr << "cmswitchc: frontend passes removed "
                  << artifact->passStats.removedOps << " op(s)\n";
    }

    const CompileResult &result = artifact->result;
    cmswitch_fatal_if(!artifact->validation.ok(),
                      "generated program failed validation:\n",
                      artifact->validation.summary());

    std::cerr << "cmswitchc: " << result.program.modelName() << " -> "
              << result.numSegments() << " segments, "
              << result.totalCycles() << " cycles (intra "
              << result.latency.intra << ", write-back "
              << result.latency.writeback << ", switch "
              << result.latency.modeSwitch << ", rewrite "
              << result.latency.rewrite << "), memory-array ratio "
              << formatDouble(result.avgMemoryArrayRatio(), 3)
              << ", compiled in "
              << formatDouble(result.compileSeconds, 3) << "s\n";
    std::cerr << "cmswitchc: estimated energy "
              << formatDouble(artifact->energy.totalUj(), 2) << " uJ\n";

    // The compile is over: stop recording before rendering reports so
    // the trace/metrics files and the --emit-json observability section
    // all see the same final snapshot.
    session.finish(args.traceFile, args.metricsFile);

    if (!args.emitJson.empty()) {
        // The latency section rides with the metrics snapshot: both are
        // timing-dependent, so reports without --trace/--metrics stay
        // byte-comparable across runs (json_smoke pins this).
        writeTextFile(args.emitJson,
                      renderCompileReport(*artifact,
                                          session.registry.get(),
                                          session.registry ? &latency
                                                           : nullptr));
        std::cerr << "cmswitchc: report written to " << args.emitJson
                  << "\n";
    }

    // --stats drops only the stdout dump; --out still writes the file.
    if (!args.outFile.empty()) {
        writeTextFile(args.outFile, printProgram(result.program));
        std::cerr << "cmswitchc: program written to " << args.outFile
                  << "\n";
    } else if (!args.statsOnly) {
        std::cout << printProgram(result.program);
    }
    return 0;
}

/** One parsed batch job: the request plus report bookkeeping. */
struct BatchJob
{
    ServeRequest compile;   ///< the job line's per-compile flags
    std::string context;    ///< "<jobs file> line N", for errors
    CompileRequest request; ///< resolveJobs() fills it from compile
    std::string key;
    std::string reportFile;
    std::string error;          ///< resolveServeWorkload's, if it failed
    bool graphResolved = false; ///< workload already built (file models)
    bool expectHit = false; ///< key already submitted by an earlier job
};

/**
 * Resolve every job's chip + workload graph and request key, spreading
 * the expensive part — zoo graph construction and request hashing —
 * over up to @p threads threads, the calling one included.
 *
 * fatal() calls std::exit, and exiting from a worker while its
 * siblings run would tear down static state under them. So a serial
 * prologue does everything that can fatal(): each unique chip once
 * (memoized), then prepareRequest. Workers only run the fatal-free
 * resolveServeWorkload (never re-probing the filesystem) and
 * requestKey, and the first failed job is reported after the join.
 * Jobs are independent and deterministic, so the result equals a
 * serial loop's.
 */
void
resolveJobs(std::vector<BatchJob> *jobs, s64 threads)
{
    std::map<std::string, ChipConfig> chips;
    for (BatchJob &job : *jobs) {
        auto [it, inserted] = chips.try_emplace(job.compile.chip);
        if (inserted)
            it->second = resolveChip(job.compile.chip, job.context);
        job.request.chip = it->second;
        job.graphResolved =
            prepareRequest(job.compile, job.context, &job.request);
    }

    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t k = next++; k < jobs->size(); k = next++) {
            BatchJob &job = (*jobs)[k];
            if (job.graphResolved
                || resolveServeWorkload(job.compile, &job.request.workload,
                                        &job.error))
                job.key = requestKey(job.request);
        }
    };
    s64 workers = std::min(threads, static_cast<s64>(jobs->size()));
    std::vector<std::thread> pool;
    for (s64 i = 1; i < workers; ++i) // the caller is the last worker
        pool.emplace_back(work);
    work();
    for (std::thread &worker : pool)
        worker.join();

    for (const BatchJob &job : *jobs)
        cmswitch_fatal_if(!job.error.empty(), job.context, ": ", job.error);
}

std::vector<BatchJob>
parseJobs(const Options &batch)
{
    std::vector<BatchJob> jobs;
    std::istringstream iss(readFile(batch.jobsFile));
    std::string line;
    s64 line_no = 0;
    std::map<std::string, bool> seen;
    while (std::getline(iss, line)) {
        ++line_no;
        std::string t = trim(line);
        if (t.empty() || t[0] == '#')
            continue;

        std::vector<std::string> tokens;
        std::istringstream ls(t);
        std::string tok;
        while (ls >> tok)
            tokens.push_back(tok);

        BatchJob job;
        job.context = batch.jobsFile + " line " + std::to_string(line_no);
        job.compile = parseArgs(kJobLine, tokens, job.context).compile;

        std::ostringstream name;
        name << "job" << std::setw(3) << std::setfill('0') << jobs.size()
             << "_" << sanitizeToken(job.compile.model) << "_"
             << sanitizeToken(job.compile.chip) << "_"
             << sanitizeToken(job.compile.compiler) << ".json";
        job.reportFile = name.str();
        jobs.push_back(std::move(job));
    }
    cmswitch_fatal_if(jobs.empty(), batch.jobsFile, " contains no jobs");

    // Model/chip graph construction is the expensive half of job setup
    // (huge job lists spend seconds here), so it runs on the batch's
    // thread budget instead of serially on the main thread. Each job is
    // independent; requestKey hashing rides along.
    resolveJobs(&jobs, batch.threads);

    // Hit/miss labels derive from submission order (first occurrence of
    // a key compiles, repeats hit) — serial on purpose, so the labels
    // are deterministic under any thread count.
    for (BatchJob &job : jobs) {
        job.expectHit = seen[job.key];
        seen[job.key] = true;
    }
    return jobs;
}

int
batchMain(Options batch)
{
    if (batch.jobsFile.empty())
        usageError("batch mode requires --jobs");
    if (batch.outDir.empty())
        usageError("batch mode requires --out-dir");
    if (batch.summaryFile.empty())
        batch.summaryFile = (std::filesystem::path(batch.outDir)
                             / "summary.json").string();
    std::vector<BatchJob> jobs = parseJobs(batch);
    std::filesystem::create_directories(batch.outDir);

    // Metrics are always on in batch mode — the summary's latency
    // quantiles come from them. Declared before the service so workers
    // never outlive the registry; tracing stays opt-in (--trace).
    ObsSession session;
    session.start(batch.traceFile, /*metrics=*/true);
    obs::MetricsRegistry &registry = *session.registry;
    obs::setGauge(obs::Gau::kServiceThreads, batch.threads);

    auto t0 = std::chrono::steady_clock::now();
    CompileService service({.threads = batch.threads,
                            .cacheCapacity = batch.cacheCapacity,
                            .cacheDir = batch.cacheDir});

    // Stable addresses for the per-job latency out-structs: workers
    // write them before their futures become ready (--job-latency).
    std::vector<ServiceRequestLatency> latencies(jobs.size());
    std::vector<std::future<ArtifactPtr>> futures;
    futures.reserve(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k)
        futures.push_back(service.submit(
            jobs[k].request,
            batch.jobLatency ? &latencies[k] : nullptr));

    s64 invalid = 0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        // Drop the ArtifactPtr as soon as its report is on disk: the
        // plan cache (bounded by --cache-capacity) is the only thing
        // keeping plans alive across jobs.
        ArtifactPtr artifact = futures[k].get();
        if (!artifact->validation.ok()) {
            ++invalid;
            warn("batch job ", k, " (", jobs[k].compile.model, " / ",
                 jobs[k].compile.chip, " / ", jobs[k].compile.compiler,
                 ") failed validation:\n",
                 artifact->validation.summary());
        }
        writeTextFile((std::filesystem::path(batch.outDir)
                       / jobs[k].reportFile).string(),
                      renderCompileReport(*artifact, nullptr,
                                          batch.jobLatency
                                              ? &latencies[k]
                                              : nullptr));
    }
    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();

    // Every future is drained, so the workers are idle: stop observing
    // before reading the registry for the summary. Late stragglers
    // (none expected) would see the disabled branch, not a torn write.
    session.finish(batch.traceFile, "");

    CompileServiceStats stats = service.stats();
    // Lifetime totals across every process that ever used this
    // --cache-dir: flush this run's deltas into the sidecar now (the
    // destructor's flush then adds nothing) and report the merged sums.
    DiskPlanCacheStats sidecar;
    if (service.diskCache())
        sidecar = service.diskCache()->flushSidecar();
    JsonWriter w;
    w.beginObject()
        .field("schema", "cmswitch-batch-summary-v7")
        .field("jobs", static_cast<s64>(jobs.size()))
        .field("threads", batch.threads)
        .field("invalid_jobs", invalid)
        .field("wall_seconds", wall);
    w.key("cache")
        .beginObject()
        .field("capacity", batch.cacheCapacity)
        .field("hits", stats.cache.hits)
        .field("misses", stats.cache.misses)
        .field("evictions", stats.cache.evictions)
        .field("dir", batch.cacheDir)
        .field("fingerprint", buildFingerprintHex());
    // In-memory misses that a --cache-dir plan file satisfied show up
    // as disk_hits; only (misses - disk_hits) actually compiled.
    stats.disk.writeJsonFields(w);
    // Cross-process lifetime totals from the stats sidecar (all zero
    // when --cache-dir is off).
    w.field("sidecar_hits", sidecar.hits)
        .field("sidecar_misses", sidecar.misses)
        .field("sidecar_stores", sidecar.stores)
        .field("sidecar_rejected", sidecar.rejected)
        .field("sidecar_touch_failed", sidecar.touchFailed);
    w.endObject();
    // v4: compile-latency quantiles (p50/p90/p95/p99 from the log
    // histograms) plus the full metrics snapshot — the timing half of
    // the summary, intentionally not byte-stable across runs.
    w.key("latency").beginObject();
    w.key("compile_seconds");
    registry.histogram(obs::Hist::kPhaseCompile).writeJson(w);
    w.key("execute_seconds");
    registry.histogram(obs::Hist::kServiceExecute).writeJson(w);
    w.key("queue_wait_seconds");
    registry.histogram(obs::Hist::kServiceQueueWait).writeJson(w);
    w.endObject();
    w.key("metrics");
    registry.writeJson(w);
    w.key("job_reports").beginArray();
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        w.beginObject()
            .field("index", static_cast<s64>(k))
            .field("report", jobs[k].reportFile)
            .field("key", jobs[k].key)
            .field("model", jobs[k].compile.model)
            .field("chip", jobs[k].compile.chip)
            .field("compiler", jobs[k].compile.compiler)
            // First submission of a key compiles, repeats hit the plan
            // cache — derived from submission order, so deterministic
            // under any thread count. If --cache-capacity is smaller
            // than the unique-key count, evicted repeats recompile and
            // the aggregate counters above will exceed these labels.
            .field("cache", jobs[k].expectHit ? "hit" : "miss")
            .endObject();
    }
    w.endArray();
    w.endObject();
    writeTextFile(batch.summaryFile, w.str());

    std::cerr << "cmswitchc: batch of " << jobs.size() << " job(s) on "
              << batch.threads << " thread(s): "
              << stats.cache.misses - stats.disk.hits << " compiled, "
              << stats.cache.hits << " cache hit(s), ";
    if (!batch.cacheDir.empty())
        std::cerr << stats.disk.hits << " disk hit(s), ";
    std::cerr << invalid << " invalid, in " << formatDouble(wall, 2)
              << "s\n"
              << "cmswitchc: summary written to " << batch.summaryFile
              << "\n";
    return invalid == 0 ? 0 : 1;
}

/** `cmswitchc serve`: the long-lived compile daemon (docs/serving.md),
 *  or — with --connect — the script-driven client that tests and
 *  operators use to talk to one. */
int
serveMain(const Options &args)
{
    if (!args.connectPath.empty() && args.scriptFile.empty())
        usageError("serve --connect requires --script");
    if (args.connectPath.empty() && !args.scriptFile.empty())
        usageError("serve --script only makes sense with --connect");
    if (!args.connectPath.empty() && !args.socketPath.empty())
        usageError("serve --connect (client) and --socket (daemon) are "
                   "mutually exclusive");
    if (!args.pidFile.empty() && args.socketPath.empty())
        usageError("serve --pid-file requires --socket");
    if (!args.connectPath.empty())
        return runServeClient(args.connectPath, args.scriptFile);

    installServeSignalHandlers();
    ObsSession session;
    session.start(args.traceFile, !args.metricsFile.empty());

    int exitCode = 0;
    {
        // stdin mode answers on stdout (fd 1); socket mode retargets
        // the writer at each accepted connection.
        ServeWriter writer(args.socketPath.empty() ? 1 : -1);
        ServeEngineOptions options;
        options.maxInflight = args.maxInflight;
        options.maxQueue = args.maxQueue;
        options.statusEvery = args.statusEvery;
        options.service.cacheCapacity = args.cacheCapacity;
        options.service.cacheDir = args.cacheDir;
        ServeEngine engine(
            options,
            [&writer](const std::string &line) { writer.writeLine(line); },
            [](const std::string &line) { std::cerr << line + "\n"; });
        if (args.socketPath.empty()) {
            runServeSession(engine, 0);
            engine.drainIdle();
            std::cerr << "cmswitchc: serve: session ended\n";
        } else {
            exitCode = runServeSocketDaemon(engine, writer,
                                            args.socketPath, args.pidFile);
        }
    } // engine destructor: drain admitted work, join the workers
    session.finish(args.traceFile, args.metricsFile);
    return exitCode;
}

/** `cmswitchc cache <gc|stats|verify>`: plan-cache lifecycle ops. All
 *  verbs print their JSON report to stdout (stderr stays free for
 *  warnings), so CI steps and scripts can pipe straight into a JSON
 *  parser. */
int
cacheMain(const std::vector<std::string> &tokens)
{
    if (tokens.empty())
        usageError("cache mode requires a verb: gc, stats, or verify");
    const std::string &verb = tokens[0];
    if (verb == "--help") {
        std::cout << kUsage;
        return 0;
    }
    if (verb != "gc" && verb != "stats" && verb != "verify")
        usageError("unknown cache verb '" + verb
                   + "' (expected gc, stats, or verify)");
    Options args = parseArgs(verb == "gc"      ? kCacheGc
                             : verb == "stats" ? kCacheStats
                                               : kCacheVerify,
                             {tokens.begin() + 1, tokens.end()}, "");
    const std::string &dir = args.cacheDir;
    if (dir.empty())
        usageError("cache " + verb + " requires --cache-dir");

    JsonWriter w;
    if (verb == "gc") {
        if (args.maxBytes < 0 && args.maxAge < 0)
            usageError("cache gc needs --max-bytes and/or --max-age "
                       "(otherwise there is nothing to collect)");
        CacheGcReport report =
            gcPlanCache({dir, args.maxBytes, args.maxAge});
        report.writeJson(w);
        std::cout << w.str() << "\n";
        std::cerr << "cmswitchc: cache gc deleted " << report.deletedFiles
                  << " of " << report.scannedFiles << " artifact(s) ("
                  << report.deletedBytes << " of " << report.scannedBytes
                  << " bytes) in " << dir << "\n";
        return 0;
    }
    if (verb == "stats") {
        statsPlanCache(dir).writeJson(w);
        std::cout << w.str() << "\n";
        return 0;
    }
    CacheVerifyReport report = verifyPlanCache({dir, args.deleteDamaged});
    report.writeJson(w);
    std::cout << w.str() << "\n";
    std::cerr << "cmswitchc: cache verify found " << report.damagedFiles
              << " damaged of " << report.scannedFiles << " artifact(s) in "
              << dir << "\n";
    return report.clean() ? 0 : 1;
}

/** `cmswitchc fingerprint`: the plan-fingerprint digest that keys
 *  --cache-dir compatibility, plus the algorithm-revision table it
 *  hashes, as JSON on stdout — so scripts can tell whether two builds
 *  share plan caches without compiling anything. */
int
fingerprintMain()
{
    std::string plan_format(kPlanFormatTag);
    if (!plan_format.empty() && plan_format.back() == '\n')
        plan_format.pop_back();
    JsonWriter w;
    w.beginObject()
        .field("schema", "cmswitch-fingerprint-v1")
        .field("version", CMSWITCH_VERSION)
        .field("fingerprint", buildFingerprintHex())
        .field("plan_format", plan_format);
    w.key("algorithm_revisions").beginArray();
    for (const AlgorithmRevision &rev : algorithmRevisions()) {
        w.beginObject()
            .field("pass", rev.pass)
            .field("revision", rev.revision)
            .endObject();
    }
    w.endArray().endObject();
    std::cout << w.str() << "\n";
    return 0;
}

/** `cmswitchc sim`: compile a scenario's plan table and replay its
 *  traffic through the discrete-event serving simulator. Scenario
 *  errors exit 1 with a message (they are semantic, not usage); the
 *  report goes to --out or stdout, a one-line summary to stderr. */
int
simMain(const Options &args)
{
    if (args.scenarioFile.empty())
        usageError("sim mode requires --scenario");
    SimScenario scenario;
    std::string error;
    if (!parseSimScenario(readFile(args.scenarioFile), &scenario, &error)) {
        std::cerr << "cmswitchc: sim: bad scenario '" << args.scenarioFile
                  << "': " << error << "\n";
        return 1;
    }
    ServingSimOptions options;
    options.compileThreads = args.threads;
    SimResult result;
    if (!runServingSimulation(scenario, options, &result, &error)) {
        std::cerr << "cmswitchc: sim: " << error << "\n";
        return 1;
    }
    std::string report = renderSimReport(scenario, result);
    if (args.outFile.empty())
        std::cout << report << "\n";
    else
        writeTextFile(args.outFile, report + "\n");
    std::cerr << "cmswitchc: sim '" << scenario.name << "': "
              << result.arrived << " arrived, " << result.completed
              << " completed, "
              << result.shedAdmission + result.shedDeadline
              << " shed; throughput "
              << result.throughputPerSecond() << " req/s, p99 total "
              << result.totalSeconds.quantile(0.99) << " s\n";
    return 0;
}

} // namespace

int
cliMain(int argc, char **argv)
{
    if (argc <= 1) {
        std::cerr << kUsage;
        return 2;
    }
    const std::string subcommand = argv[1];
    const std::vector<std::string> rest(argv + 2, argv + argc);
    if (subcommand == "batch")
        return batchMain(parseArgs(kBatch, rest, ""));
    if (subcommand == "serve")
        return serveMain(parseArgs(kServe, rest, ""));
    if (subcommand == "sim")
        return simMain(parseArgs(kSim, rest, ""));
    if (subcommand == "cache")
        return cacheMain(rest);
    if (subcommand == "fingerprint") {
        parseArgs(kFingerprint, rest, "");
        return fingerprintMain();
    }
    return singleMain(parseArgs(kSingle, {argv + 1, argv + argc}, ""));
}

} // namespace cmswitch

int
main(int argc, char **argv)
{
    return cmswitch::cliMain(argc, argv);
}
