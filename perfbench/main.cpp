/**
 * @file
 * perfbench_runner: runs one benchmark workload against the cmswitch
 * library and prints its result.
 *
 *   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                    --out-dir DIR --work-dir DIR
 *
 * Human-readable lines (each metric with its unit, sample count and the
 * workload's own name for it) go to stderr; the last stdout line is the
 * result object {"correct", "attempted", "failed", "metrics"} holding
 * the end-to-end metrics untraced, the per-layer catalog traced. A
 * traced run also writes DIR/<workload>.trace.json (Chrome trace) and
 * DIR/<workload>.layers.json. Exit status: 0 when every check passed,
 * 1 when one failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench_runner: " << message
              << "\nusage: perfbench_runner --workload "
                 "compile_cold|serve_hot|serve_kv_sweep|sim_fleet --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR --work-dir DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = value == "1";
            else if (flag == "--out-dir")
                options.outDir = value;
            else if (flag == "--work-dir")
                options.workDir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!(options.seconds > 0.0) || options.outDir.empty()
        || options.workDir.empty())
        usage("need --seconds > 0, --out-dir and --work-dir");
    return options;
}

void
writeMetrics(cmswitch::JsonWriter &w, const std::vector<Metric> &metrics)
{
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.field("value", m.value).field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
}

std::string
compact(const cmswitch::JsonWriter &w)
{
    std::string text = w.str();
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

void
printHuman(const Options &options, const Outcome &out)
{
    std::fprintf(stderr, "workload %s  seed %llu  %s\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.trace ? "traced" : "untraced");
    auto print = [&](const Metric &m) {
        std::fprintf(stderr, "  %-34s %14.6g %-7s", m.name.c_str(), m.value,
                     m.unit.c_str());
        if (m.samples > 0)
            std::fprintf(stderr, " n=%lld",
                         static_cast<long long>(m.samples));
        if (!m.meaning.empty() && m.meaning != m.name)
            std::fprintf(stderr, "  (%s)", m.meaning.c_str());
        std::fprintf(stderr, "\n");
    };
    for (const Metric &m : out.endToEnd)
        print(m);
    for (const Metric &m : out.info)
        print(m);
    for (const Metric &m : out.perLayer)
        print(m);
    std::fprintf(stderr, "  %-34s %14.6g %-7s n=%lld\n", "fail_ratio",
                 out.attempted > 0 ? static_cast<double>(out.failed)
                                         / static_cast<double>(out.attempted)
                                   : 1.0,
                 "ratio", static_cast<long long>(out.attempted));
    for (const std::string &problem : out.problems)
        std::fprintf(stderr, "  check failed: %s\n", problem.c_str());
}

} // namespace

int
runnerMain(int argc, char **argv)
{
    Options options = parseArgs(argc, argv);
    void (*run)(const Options &, Outcome *) = nullptr;
    if (options.workload == "compile_cold")
        run = runCompileCold;
    else if (options.workload == "serve_hot")
        run = runServeHot;
    else if (options.workload == "serve_kv_sweep")
        run = runServeKvSweep;
    else if (options.workload == "sim_fleet")
        run = runSimFleet;
    else
        usage("unknown workload '" + options.workload + "'");

    std::filesystem::create_directories(options.outDir);
    Outcome out;
    try {
        run(options, &out);
    } catch (const std::exception &e) {
        out.fail(std::string("exception: ") + e.what());
    }
    if (out.attempted < 1) {
        out.attempted = 1;
        if (out.failed == 0)
            out.fail("the workload attempted nothing");
    }
    printHuman(options, out);

    bool correct = out.failed == 0;
    if (options.trace) {
        cmswitch::JsonWriter layers(2);
        layers.beginObject()
            .field("workload", options.workload)
            .field("seed", static_cast<s64>(options.seed));
        layers.key("metrics").beginObject();
        for (const Metric &m : out.perLayer) {
            layers.key(m.name).beginObject();
            layers.field("value", m.value).field("unit", m.unit);
            layers.field("samples", m.samples);
            layers.endObject();
        }
        layers.endObject().endObject();
        std::ofstream(options.outDir + "/" + options.workload
                      + ".layers.json")
            << layers.str();
    }

    cmswitch::JsonWriter w(0);
    w.beginObject()
        .field("correct", correct)
        .field("attempted", out.attempted)
        .field("failed", out.failed);
    w.key("metrics");
    writeMetrics(w, options.trace ? out.perLayer : out.endToEnd);
    w.endObject();
    std::cout << compact(w) << std::endl;
    return correct ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::runnerMain(argc, argv);
}
