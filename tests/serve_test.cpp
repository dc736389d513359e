/**
 * @file
 * Tests for the serve daemon's building blocks: the ServeQueue
 * admission gate (priority-then-FIFO rejection order, deadline expiry
 * while queued — both driven by a fake clock, fully deterministic),
 * the strict wire-protocol parser/resolver, and the ServeEngine's
 * status-v3 report under a fixed hold/release request script
 * (cumulative quantiles on demand, interval deltas only on periodic
 * lines). The two-process socket path is covered by serve_smoke (e2e).
 */

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "service/serve/serve_engine.hpp"
#include "service/serve/serve_protocol.hpp"
#include "service/serve/serve_queue.hpp"
#include "support/json_parse.hpp"

namespace cmswitch {
namespace {

using Kind = ServeQueue::Admission::Kind;

TEST(ServeQueue, RejectionOrderIsPriorityThenFifo)
{
    ServeQueue queue(2);
    EXPECT_EQ(queue.admit(1, 5, false, 0.0).kind, Kind::kAdmitted);
    EXPECT_EQ(queue.admit(2, 5, false, 0.0).kind, Kind::kAdmitted);

    // Equal priority never displaces a waiter: FIFO within the band.
    EXPECT_EQ(queue.admit(3, 5, false, 0.0).kind, Kind::kShedSelf);
    // Lower priority sheds itself.
    EXPECT_EQ(queue.admit(4, 1, false, 0.0).kind, Kind::kShedSelf);
    EXPECT_EQ(queue.size(), 2);

    // Strictly higher priority evicts the weakest waiter; among the
    // equal-priority band the *newest* loses (seq 2, not seq 1).
    ServeQueue::Admission eviction = queue.admit(5, 9, false, 0.0);
    EXPECT_EQ(eviction.kind, Kind::kShedVictim);
    EXPECT_EQ(eviction.victim, 2u);
    EXPECT_EQ(queue.size(), 2);
}

TEST(ServeQueue, VictimComesFromTheLowestPriorityBand)
{
    ServeQueue queue(3);
    queue.admit(1, 5, false, 0.0);
    queue.admit(2, 1, false, 0.0);
    queue.admit(3, 5, false, 0.0);
    ServeQueue::Admission eviction = queue.admit(4, 9, false, 0.0);
    EXPECT_EQ(eviction.kind, Kind::kShedVictim);
    EXPECT_EQ(eviction.victim, 2u);
}

TEST(ServeQueue, PopOrdersByPriorityDeadlineThenFifo)
{
    ServeQueue queue(8);
    queue.admit(1, 0, false, 0.0);
    queue.admit(2, 5, false, 0.0);
    queue.admit(3, 5, true, 9.0);
    queue.admit(4, 5, true, 4.0);
    queue.admit(5, 9, false, 0.0);
    queue.admit(6, 0, false, 0.0);

    // Priority first; within a band a deadline outranks none and the
    // earlier deadline wins; all else FIFO by admission sequence.
    std::vector<u64> expired;
    std::vector<u64> order;
    u64 seq = 0;
    while (queue.pop(0.0, &seq, &expired))
        order.push_back(seq);
    EXPECT_TRUE(expired.empty());
    EXPECT_EQ(order, (std::vector<u64>{5, 4, 3, 2, 1, 6}));
}

TEST(ServeQueue, PopShedsExpiredTicketsBeforeSelecting)
{
    ServeQueue queue(4);
    // Seq 1 would be popped first (highest priority) — but its
    // deadline has passed, so it must be shed, never dispatched.
    queue.admit(1, 9, true, 1.0);
    queue.admit(2, 0, false, 0.0);

    std::vector<u64> expired;
    u64 seq = 0;
    ASSERT_TRUE(queue.pop(2.0, &seq, &expired));
    EXPECT_EQ(expired, std::vector<u64>{1});
    EXPECT_EQ(seq, 2u);

    // A deadline exactly at `now` counts as expired, and a sweep that
    // empties the queue reports so.
    queue.admit(3, 5, true, 3.0);
    expired.clear();
    EXPECT_FALSE(queue.pop(3.0, &seq, &expired));
    EXPECT_EQ(expired, std::vector<u64>{3});
    EXPECT_TRUE(queue.empty());
}

TEST(ServeProtocol, ParseIsStrict)
{
    ServeRequest request;
    std::string error;
    EXPECT_FALSE(parseServeRequest("not json", &request, &error));
    EXPECT_FALSE(parseServeRequest("[1,2]", &request, &error));
    EXPECT_FALSE(parseServeRequest(R"({"id":"x"})", &request, &error));
    EXPECT_FALSE(
        parseServeRequest(R"({"op":"fly","id":"x"})", &request, &error));
    // Compile needs a non-empty id and a model.
    EXPECT_FALSE(parseServeRequest(R"({"op":"compile","model":"vgg16"})",
                                   &request, &error));
    EXPECT_FALSE(parseServeRequest(R"({"op":"compile","id":"a"})",
                                   &request, &error));
    // Unknown keys are errors, not silently dropped typos.
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"compile","id":"a","model":"vgg16","prio":3})", &request,
        &error));
    EXPECT_NE(error.find("prio"), std::string::npos);
    // Compile-only keys are rejected on other ops.
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"status","id":"s","model":"vgg16"})", &request, &error));
    // Wrong types and out-of-range values are errors.
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"compile","id":"a","model":"vgg16","batch":"two"})",
        &request, &error));
    EXPECT_FALSE(parseServeRequest(
        R"({"op":"compile","id":"a","model":"vgg16","deadline_ms":-1})",
        &request, &error));
}

TEST(ServeProtocol, ParseReadsEveryCompileField)
{
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"op":"compile","id":"r1","model":"bert-base","chip":"prime",)"
        R"("compiler":"occ","batch":2,"seq":128,"layers":3,)"
        R"("optimize":true,"priority":-7,"deadline_ms":250})",
        &request, &error))
        << error;
    EXPECT_EQ(request.op, ServeRequest::Op::kCompile);
    EXPECT_EQ(request.id, "r1");
    EXPECT_EQ(request.model, "bert-base");
    EXPECT_EQ(request.chip, "prime");
    EXPECT_EQ(request.compiler, "occ");
    EXPECT_EQ(request.batch, 2);
    EXPECT_EQ(request.seq, 128);
    EXPECT_EQ(request.layers, 3);
    EXPECT_TRUE(request.optimize);
    EXPECT_EQ(request.priority, -7);
    EXPECT_TRUE(request.hasDeadline);
    EXPECT_EQ(request.deadlineMs, 250);

    // Deadline absent != deadline 0: only presence arms the expiry.
    ASSERT_TRUE(parseServeRequest(
        R"({"op":"compile","id":"r2","model":"tiny-mlp"})", &request,
        &error))
        << error;
    EXPECT_FALSE(request.hasDeadline);
    EXPECT_EQ(request.priority, 0);
}

TEST(ServeProtocol, ResolveFailsOnUnknownNamesWithoutExiting)
{
    // The CLI resolvers fatal() on unknown names; the serve resolver
    // must instead fail with a message — a daemon cannot exit because
    // one client sent a typo.
    ServeRequest request;
    request.id = "x";
    request.model = "no-such-model";
    CompileRequest resolved;
    std::string error;
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));
    EXPECT_NE(error.find("no-such-model"), std::string::npos);

    request.model = "tiny-mlp";
    request.chip = "no-such-chip";
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));

    request.chip = "dynaplasia";
    request.compiler = "no-such-compiler";
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));

    // decode/layers only make sense on transformers.
    request.compiler = "cmswitch";
    request.model = "vgg16";
    request.decodeKv = 4;
    EXPECT_FALSE(resolveServeRequest(request, &resolved, &error));

    request.decodeKv = 0;
    EXPECT_TRUE(resolveServeRequest(request, &resolved, &error)) << error;
    EXPECT_EQ(resolved.compilerId, "cmswitch");
}

TEST(ServeProtocol, ServingDocExampleParsesAndResolves)
{
    // The worked example's decode request from docs/serving.md,
    // verbatim: the documented wire keys must be the accepted ones.
    ServeRequest request;
    std::string error;
    ASSERT_TRUE(parseServeRequest(
        R"({"op":"compile","id":"urgent","model":"opt-6.7b","decode":256,"layers":2,"priority":9,"deadline_ms":5000})",
        &request, &error))
        << error;
    EXPECT_EQ(request.decodeKv, 256);
    EXPECT_EQ(request.layers, 2);
    CompileRequest resolved;
    EXPECT_TRUE(resolveServeRequest(request, &resolved, &error)) << error;
}

/** Collects response lines from an engine (sink runs on worker and
 *  session threads). */
struct ResponseLog
{
    std::mutex mutex;
    std::vector<std::string> lines;

    ServeEngine::LineFn sink()
    {
        return [this](const std::string &line) {
            // One line per response: the transport adds the only '\n'.
            EXPECT_EQ(line.find('\n'), std::string::npos) << line;
            std::lock_guard<std::mutex> lock(mutex);
            lines.push_back(line);
        };
    }

    /** The one response whose "id" field equals @p id. */
    JsonValue forId(const std::string &id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        JsonValue match;
        s64 found = 0;
        for (const std::string &line : lines) {
            JsonValue doc;
            std::string error;
            EXPECT_TRUE(parseJson(line, &doc, &error)) << line;
            const JsonValue *docId = doc.find("id");
            if (docId && docId->stringValue == id) {
                match = doc;
                ++found;
            }
        }
        EXPECT_EQ(found, 1) << "responses with id '" << id << "'";
        return match;
    }
};

s64
intField(const JsonValue &doc, std::initializer_list<const char *> path)
{
    const JsonValue *value = &doc;
    for (const char *key : path) {
        value = value->find(key);
        if (!value) {
            ADD_FAILURE() << "missing key '" << key << "'";
            return -1;
        }
    }
    EXPECT_TRUE(value->isIntegral);
    return value->intValue;
}

/**
 * The pinned serve scenario (mirrored by serve_smoke against the real
 * binary): max_inflight 1, max_queue 2, dispatch held while five
 * compile requests arrive —
 *   a  admitted;
 *   b  duplicate of a, coalesces as a rider (no queue slot);
 *   e  higher priority with deadline_ms 0, admitted (queue now full);
 *   d  low priority, queue full, shed at admission;
 * then release: e expires at pop (shed, never compiled), a compiles
 * cold with b riding, and a later identical f hits the memory cache.
 * Every counter in the status-v3 report is pinned; run twice to show
 * the report is deterministic under a fixed script.
 */
TEST(ServeEngine, StatusReportIsDeterministicUnderFixedScript)
{
    for (int run = 0; run < 2; ++run) {
        ResponseLog log;
        ServeEngineOptions options;
        options.maxInflight = 1;
        options.maxQueue = 2;
        ServeEngine engine(options, log.sink());

        auto line = [&](const std::string &text) {
            EXPECT_TRUE(engine.handleLine(text));
        };
        line(R"({"op":"hold","id":"h"})");
        line(R"({"op":"compile","id":"a","model":"tiny-mlp","priority":5})");
        line(R"({"op":"compile","id":"b","model":"tiny-mlp","priority":5})");
        line(R"({"op":"compile","id":"e","model":"tiny-mlp","chip":"prime",)"
             R"("priority":9,"deadline_ms":0})");
        line(R"({"op":"compile","id":"d","model":"tiny-mlp",)"
             R"("compiler":"occ","priority":1})");
        line(R"({"op":"release","id":"r"})");
        line(R"({"op":"drain","id":"dr"})");
        line(R"({"op":"compile","id":"f","model":"tiny-mlp","priority":5})");
        line(R"({"op":"drain","id":"dr2"})");

        // Per-request outcomes.
        JsonValue a = log.forId("a");
        EXPECT_EQ(a.find("cache")->stringValue, "cold");
        EXPECT_FALSE(a.find("coalesced")->boolValue);
        JsonValue b = log.forId("b");
        EXPECT_EQ(b.find("status")->stringValue, "ok");
        EXPECT_TRUE(b.find("coalesced")->boolValue);
        EXPECT_EQ(b.find("key")->stringValue, a.find("key")->stringValue);
        JsonValue d = log.forId("d");
        EXPECT_EQ(d.find("status")->stringValue, "shed");
        EXPECT_EQ(d.find("reason")->stringValue, "admission");
        EXPECT_EQ(intField(d, {"queue_depth"}), 2);
        JsonValue e = log.forId("e");
        EXPECT_EQ(e.find("status")->stringValue, "shed");
        EXPECT_EQ(e.find("reason")->stringValue, "deadline");
        JsonValue f = log.forId("f");
        EXPECT_EQ(f.find("cache")->stringValue, "memory");

        // The status-v3 report, every counter pinned. On-demand status
        // is a pure read: cumulative only, no interval block.
        JsonValue status;
        std::string error;
        ASSERT_TRUE(parseJson(engine.statusJson(), &status, &error))
            << error;
        EXPECT_EQ(status.find("schema")->stringValue,
                  "cmswitch-serve-status-v3");
        EXPECT_EQ(status.find("interval"), nullptr);
        EXPECT_EQ(intField(status, {"requests", "received"}), 5);
        EXPECT_EQ(intField(status, {"requests", "admitted"}), 3);
        EXPECT_EQ(intField(status, {"requests", "coalesced"}), 1);
        EXPECT_EQ(intField(status, {"requests", "shed_admission"}), 1);
        EXPECT_EQ(intField(status, {"requests", "shed_deadline"}), 1);
        EXPECT_EQ(intField(status, {"requests", "errors"}), 0);
        EXPECT_EQ(intField(status, {"requests", "completed"}), 3);
        EXPECT_EQ(intField(status, {"queue", "depth"}), 0);
        EXPECT_EQ(intField(status, {"queue", "inflight"}), 0);
        EXPECT_EQ(intField(status, {"cache", "memory"}), 1);
        EXPECT_EQ(intField(status, {"cache", "disk"}), 0);
        EXPECT_EQ(intField(status, {"cache", "cold"}), 1);
        std::vector<std::string> outcomes;
        for (const auto &member : status.find("cache")->members)
            outcomes.push_back(member.first);
        EXPECT_EQ(outcomes,
                  (std::vector<std::string>{"memory", "disk", "cold"}));
        EXPECT_EQ(intField(status, {"plan_cache", "hits"}), 1);
        EXPECT_EQ(intField(status, {"plan_cache", "misses"}), 1);
        // Two compiles ran (a+b share one, f the other): the latency
        // estimators saw exactly two samples each.
        EXPECT_EQ(intField(status, {"latency", "execute_seconds",
                                    "count"}), 2);
        EXPECT_EQ(intField(status, {"latency", "queue_wait_seconds",
                                    "count"}), 2);
    }
}

/**
 * --status-every periodic lines carry true interval deltas: with
 * statusEvery 1, each line's "interval" block counts only the groups
 * that completed since the previous line, its histograms hold only the
 * interval's samples, and the deltas sum back to the cumulative
 * section that keeps counting from engine start. "drain" guarantees
 * any due periodic line has been written, so the script is race-free.
 */
TEST(ServeEngine, PeriodicStatusCarriesIntervalDeltas)
{
    ResponseLog log;
    ResponseLog periodic;
    ServeEngineOptions options;
    options.maxInflight = 1;
    options.maxQueue = 4;
    options.statusEvery = 1;
    ServeEngine engine(options, log.sink(), periodic.sink());

    auto line = [&](const std::string &text) {
        EXPECT_TRUE(engine.handleLine(text));
    };
    // Group 1: a leads with b riding (two completed requests, one
    // latency sample). Group 2: c compiles a different plan.
    line(R"({"op":"hold","id":"h"})");
    line(R"({"op":"compile","id":"a","model":"tiny-mlp","priority":5})");
    line(R"({"op":"compile","id":"b","model":"tiny-mlp","priority":5})");
    line(R"({"op":"release","id":"r"})");
    line(R"({"op":"drain","id":"d1"})");
    line(R"({"op":"compile","id":"c","model":"tiny-mlp","chip":"prime"})");
    line(R"({"op":"drain","id":"d2"})");

    std::vector<JsonValue> docs;
    {
        std::lock_guard<std::mutex> lock(periodic.mutex);
        ASSERT_EQ(periodic.lines.size(), 2u);
        for (const std::string &text : periodic.lines) {
            JsonValue doc;
            std::string error;
            ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
            docs.push_back(doc);
        }
    }

    EXPECT_EQ(intField(docs[0], {"interval", "completed"}), 2);
    EXPECT_EQ(intField(docs[0], {"requests", "completed"}), 2);
    EXPECT_EQ(intField(docs[0],
                       {"interval", "queue_wait_seconds", "count"}), 1);

    // Only c's group landed in the second interval; the cumulative
    // estimators keep both samples.
    EXPECT_EQ(intField(docs[1], {"interval", "completed"}), 1);
    EXPECT_EQ(intField(docs[1], {"requests", "completed"}), 3);
    EXPECT_EQ(intField(docs[1],
                       {"interval", "queue_wait_seconds", "count"}), 1);
    EXPECT_EQ(intField(docs[1],
                       {"latency", "queue_wait_seconds", "count"}), 2);
}

TEST(ServeEngine, DeadlineExpiredWhileQueuedIsNeverCompiled)
{
    ResponseLog log;
    ServeEngineOptions options;
    options.maxInflight = 1;
    options.maxQueue = 4;
    ServeEngine engine(options, log.sink());

    EXPECT_TRUE(engine.handleLine(R"({"op":"hold","id":"h"})"));
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"late","model":"tiny-mlp",)"
        R"("deadline_ms":0})"));
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"ok","model":"tiny-mlp","chip":"prime"})"));
    EXPECT_TRUE(engine.handleLine(R"({"op":"release","id":"r"})"));
    EXPECT_TRUE(engine.handleLine(R"({"op":"drain","id":"d"})"));

    EXPECT_EQ(log.forId("late").find("status")->stringValue, "shed");
    EXPECT_EQ(log.forId("late").find("reason")->stringValue, "deadline");
    EXPECT_EQ(log.forId("ok").find("status")->stringValue, "ok");

    // Exactly one compile happened — the expired request never ran.
    JsonValue status;
    std::string error;
    ASSERT_TRUE(parseJson(engine.statusJson(), &status, &error)) << error;
    EXPECT_EQ(intField(status, {"plan_cache", "misses"}), 1);
    EXPECT_EQ(intField(status, {"requests", "shed_deadline"}), 1);
    EXPECT_EQ(intField(status, {"requests", "completed"}), 1);
}

TEST(ServeEngine, BadLinesGetErrorResponsesAndTheEngineSurvives)
{
    ResponseLog log;
    ServeEngine engine(ServeEngineOptions{}, log.sink());
    EXPECT_TRUE(engine.handleLine("this is not json"));
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"bad","model":"no-such-model"})"));
    EXPECT_EQ(log.forId("bad").find("status")->stringValue, "error");
    // The daemon still compiles after both failures.
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"good","model":"tiny-mlp"})"));
    EXPECT_TRUE(engine.handleLine(R"({"op":"drain","id":"d"})"));
    EXPECT_EQ(log.forId("good").find("status")->stringValue, "ok");

    JsonValue status;
    std::string error;
    ASSERT_TRUE(parseJson(engine.statusJson(), &status, &error)) << error;
    EXPECT_EQ(intField(status, {"requests", "errors"}), 2);
    EXPECT_EQ(intField(status, {"requests", "completed"}), 1);
}

TEST(ServeEngine, ShutdownAcksDrainsAndEndsTheSession)
{
    ResponseLog log;
    ServeEngine engine(ServeEngineOptions{}, log.sink());
    EXPECT_TRUE(engine.handleLine(
        R"({"op":"compile","id":"c","model":"tiny-mlp"})"));
    EXPECT_FALSE(engine.handleLine(R"({"op":"shutdown","id":"x"})"));
    EXPECT_EQ(log.forId("c").find("status")->stringValue, "ok");
    EXPECT_EQ(log.forId("x").find("op")->stringValue, "shutdown");
}

} // namespace
} // namespace cmswitch
