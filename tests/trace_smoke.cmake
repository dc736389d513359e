# Smoke test for the observability surface: compile the same model
# with and without `--trace`/`--metrics` and check that
#   1. the trace file is valid Chrome trace-event JSON (traceEvents
#      array whose complete events carry ph/ts/dur/pid/tid/name),
#      covering segmenter, allocator, solver and cache spans;
#   2. the metrics snapshot has counters and p50/p90/p95/p99 quantiles;
#   3. the emitted *plan* is byte-identical to an untraced compile —
#      observability observes, never steers.
# Run as `cmake -DCMSWITCHC=<exe> -DWORK_DIR=<dir> -P trace_smoke.cmake`.

if(NOT CMSWITCHC)
    message(FATAL_ERROR "pass -DCMSWITCHC=<path to cmswitchc>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(model resnet18)
set(common --model ${model} --optimize)

# Plain compile: the reference program, no observability.
execute_process(COMMAND ${CMSWITCHC} ${common}
                        --out ${WORK_DIR}/plain.cmprog
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "plain compile failed (${result}):\n${err}")
endif()

# Traced compile: same request plus --trace/--metrics/--emit-json.
execute_process(COMMAND ${CMSWITCHC} ${common}
                        --out ${WORK_DIR}/traced.cmprog
                        --trace ${WORK_DIR}/trace.json
                        --metrics ${WORK_DIR}/metrics.json
                        --emit-json ${WORK_DIR}/report.json
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "traced compile failed (${result}):\n${err}")
endif()

# --- 1. plan bytes are identical with observability on ----------------
file(READ ${WORK_DIR}/plain.cmprog plain_prog)
file(READ ${WORK_DIR}/traced.cmprog traced_prog)
if(NOT plain_prog STREQUAL traced_prog)
    message(FATAL_ERROR "--trace changed the emitted program: "
                        "${WORK_DIR}/plain.cmprog vs traced.cmprog differ")
endif()

# --- 2. the trace is well-formed Chrome trace-event JSON --------------
file(READ ${WORK_DIR}/trace.json trace_doc)

string(JSON unit GET "${trace_doc}" displayTimeUnit)
if(NOT unit STREQUAL "ms")
    message(FATAL_ERROR "trace displayTimeUnit: expected 'ms', got '${unit}'")
endif()
string(JSON event_count LENGTH "${trace_doc}" traceEvents)
if(NOT event_count GREATER 10)
    message(FATAL_ERROR "trace has only ${event_count} event(s)")
endif()

# Structurally validate a bounded sample of events (each string(JSON)
# call re-parses the whole document, so a full walk would be O(n^2)):
# every sampled event must carry the trace-event keys and be an 'M'
# metadata record or an 'X' complete span with non-negative duration.
if(event_count GREATER 40)
    set(last 40)
else()
    math(EXPR last "${event_count} - 1")
endif()
foreach(i RANGE ${last})
    string(JSON ph GET "${trace_doc}" traceEvents ${i} ph)
    string(JSON name GET "${trace_doc}" traceEvents ${i} name)
    string(JSON tid GET "${trace_doc}" traceEvents ${i} tid)
    string(JSON pid GET "${trace_doc}" traceEvents ${i} pid)
    string(JSON ts GET "${trace_doc}" traceEvents ${i} ts)
    if(ph STREQUAL "X")
        string(JSON dur GET "${trace_doc}" traceEvents ${i} dur)
        if(dur LESS 0)
            message(FATAL_ERROR "event ${i} (${name}) has negative dur")
        endif()
    elseif(NOT ph STREQUAL "M")
        message(FATAL_ERROR "event ${i}: unexpected phase '${ph}'")
    endif()
endforeach()

# The pipeline's marquee spans must all appear somewhere in the trace:
# frontend, partitioner, segmenter DP, allocator, solver.
foreach(span frontend_passes partition.flatten segmenter.run alloc.allocate
        alloc.probe mip.solve codegen)
    string(FIND "${trace_doc}" "\"name\": \"${span}\"" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "trace is missing span '${span}'")
    endif()
endforeach()

# --- 3. the metrics snapshot has counters and quantiles ---------------
file(READ ${WORK_DIR}/metrics.json metrics_doc)
string(JSON compiles GET "${metrics_doc}" counters compile.compiles)
if(NOT compiles EQUAL 1)
    message(FATAL_ERROR "metrics compile.compiles: expected 1, "
                        "got '${compiles}'")
endif()
string(JSON probes GET "${metrics_doc}" counters alloc.probes)
if(NOT probes GREATER 0)
    message(FATAL_ERROR "metrics alloc.probes: expected > 0, got '${probes}'")
endif()
foreach(p p50 p90 p95 p99)
    string(JSON q GET "${metrics_doc}"
           quantiles phase.compile_seconds ${p})
    if(q LESS_EQUAL 0)
        message(FATAL_ERROR "metrics phase.compile_seconds ${p}: "
                            "expected > 0, got '${q}'")
    endif()
endforeach()

# --- 4. cache spans: a --cache-dir compile traces load and store ------
execute_process(COMMAND ${CMSWITCHC} ${common} --stats
                        --cache-dir ${WORK_DIR}/plans
                        --trace ${WORK_DIR}/cache.trace.json
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "cached traced compile failed (${result}):\n${err}")
endif()
file(READ ${WORK_DIR}/cache.trace.json cache_trace_doc)
foreach(span disk_cache.load disk_cache.store)
    string(FIND "${cache_trace_doc}" "\"name\": \"${span}\"" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "cache trace is missing span '${span}'")
    endif()
endforeach()

# --- 5. the --emit-json report gained the observability section -------
# v2 shape: "observability" holds the per-request queue-wait/execute
# split under "request" and the metrics snapshot under "metrics"
# (docs/schemas.md) — the same shape serve responses and batch
# --job-latency reports use.
file(READ ${WORK_DIR}/report.json report_doc)
string(JSON seg_count GET "${report_doc}"
       observability metrics quantiles phase.segment_seconds count)
if(NOT seg_count GREATER 0)
    message(FATAL_ERROR "report observability phase.segment_seconds count: "
                        "expected > 0, got '${seg_count}'")
endif()
string(JSON exec_seconds GET "${report_doc}"
       observability request execute_seconds)
if(exec_seconds LESS_EQUAL 0)
    message(FATAL_ERROR "report observability request execute_seconds: "
                        "expected > 0, got '${exec_seconds}'")
endif()
string(JSON wait_seconds GET "${report_doc}"
       observability request queue_wait_seconds)
if(NOT wait_seconds EQUAL 0)
    message(FATAL_ERROR "single-mode queue_wait_seconds: expected 0, "
                        "got '${wait_seconds}'")
endif()

message(STATUS "trace_smoke: all checks passed "
               "(${event_count} trace events, plans byte-identical)")
