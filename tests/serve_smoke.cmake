# Smoke test for `cmswitchc serve` — the whole daemon surface through
# real processes:
#
#   1. stdin/stdout session: the pinned admission scenario (hold the
#      workers, then a admitted / b coalesced / e admitted with an
#      already-expired deadline / d shed at the gate; release; a late
#      duplicate f memory-hits) — every response and every counter of
#      the cmswitch-serve-status-v3 report checked, plus --status-every
#      periodic lines on stderr (which additionally carry an "interval"
#      delta block; the on-demand status op must not).
#      Every response and status line is exactly one line: no empty
#      line anywhere in stdout or stderr.
#   2. Unix-socket session: a background daemon plus the `serve
#      --connect` client (two processes), exercising one coalesced
#      duplicate and one admission shed over the socket, then a clean
#      SIGTERM shutdown (exit 0, socket and pid file unlinked).
#
# Run as `cmake -DCMSWITCHC=<exe> -DWORK_DIR=<dir> -P serve_smoke.cmake`.

if(NOT CMSWITCHC)
    message(FATAL_ERROR "pass -DCMSWITCHC=<path to cmswitchc>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# The one response line whose "id" is ${id}, from the ;-list ${lines}.
function(response_for id lines_var out_var)
    set(found "")
    foreach(line IN LISTS ${lines_var})
        string(FIND "${line}" "\"id\":\"${id}\"" at)
        if(NOT at EQUAL -1)
            if(found)
                message(FATAL_ERROR "two responses with id '${id}'")
            endif()
            set(found "${line}")
        endif()
    endforeach()
    if(NOT found)
        message(FATAL_ERROR "no response with id '${id}'")
    endif()
    set(${out_var} "${found}" PARENT_SCOPE)
endfunction()

# One document per line: an empty line anywhere in ${text} fails.
function(expect_no_empty_lines text what)
    string(FIND "${text}" "\n\n" at)
    string(SUBSTRING "${text}" 0 1 first)
    if(NOT at EQUAL -1 OR first STREQUAL "\n")
        message(FATAL_ERROR "empty line in the ${what}:\n${text}")
    endif()
endfunction()

function(expect_field doc expected)
    string(JSON actual GET "${doc}" ${ARGN})
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR "field ${ARGN}: expected '${expected}', "
                            "got '${actual}' in:\n${doc}")
    endif()
endfunction()

# --- 1. stdin session: the pinned admission scenario ------------------

file(WRITE ${WORK_DIR}/session.txt
"{\"op\":\"hold\",\"id\":\"h\"}
{\"op\":\"compile\",\"id\":\"a\",\"model\":\"tiny-mlp\",\"priority\":5}
{\"op\":\"compile\",\"id\":\"b\",\"model\":\"tiny-mlp\",\"priority\":5}
{\"op\":\"compile\",\"id\":\"e\",\"model\":\"tiny-mlp\",\"chip\":\"prime\",\"priority\":9,\"deadline_ms\":0}
{\"op\":\"compile\",\"id\":\"d\",\"model\":\"tiny-mlp\",\"compiler\":\"occ\",\"priority\":1}
{\"op\":\"release\",\"id\":\"r\"}
{\"op\":\"drain\",\"id\":\"dr\"}
{\"op\":\"compile\",\"id\":\"f\",\"model\":\"tiny-mlp\",\"priority\":5}
{\"op\":\"drain\",\"id\":\"dr2\"}
{\"op\":\"status\",\"id\":\"s\"}
{\"op\":\"shutdown\",\"id\":\"x\"}
")

execute_process(COMMAND ${CMSWITCHC} serve --max-inflight 1 --max-queue 2
                        --status-every 1
                INPUT_FILE ${WORK_DIR}/session.txt
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE result
                TIMEOUT 120)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "stdin serve session failed (${result}):\n${err}")
endif()
expect_no_empty_lines("${out}" "stdin session's responses")
expect_no_empty_lines("${err}" "stdin session's stderr")
string(REPLACE "\n" ";" lines "${out}")

# a compiled cold and led the group; its duplicate b rode along and got
# the same plan (same key) without a second compile.
response_for(a lines resp)
expect_field("${resp}" "ok" status)
expect_field("${resp}" "cold" cache)
string(JSON a_key GET "${resp}" key)
string(JSON coalesced GET "${resp}" coalesced)
if(coalesced)
    message(FATAL_ERROR "leader 'a' marked coalesced")
endif()
response_for(b lines resp)
expect_field("${resp}" "ok" status)
expect_field("${resp}" "${a_key}" key)
string(JSON coalesced GET "${resp}" coalesced)
if(NOT coalesced)
    message(FATAL_ERROR "duplicate 'b' not marked coalesced")
endif()

# d arrived at a full queue with the lowest priority: shed at the gate
# with an explicit backpressure document.
response_for(d lines resp)
expect_field("${resp}" "shed" status)
expect_field("${resp}" "admission" reason)
expect_field("${resp}" "2" queue_depth)

# e's deadline had passed by dispatch time: shed, never compiled —
# even though it was the highest-priority ticket in the queue.
response_for(e lines resp)
expect_field("${resp}" "shed" status)
expect_field("${resp}" "deadline" reason)

# f re-requested a's plan after completion: in-memory cache hit.
response_for(f lines resp)
expect_field("${resp}" "ok" status)
expect_field("${resp}" "memory" cache)

# The status-v3 report: every counter pinned by the scenario.
response_for(s lines status)
expect_field("${status}" "cmswitch-serve-status-v3" schema)
expect_field("${status}" "5" requests received)
expect_field("${status}" "3" requests admitted)
expect_field("${status}" "1" requests coalesced)
expect_field("${status}" "1" requests shed_admission)
expect_field("${status}" "1" requests shed_deadline)
expect_field("${status}" "0" requests errors)
expect_field("${status}" "3" requests completed)
expect_field("${status}" "0" queue depth)
expect_field("${status}" "0" queue inflight)
expect_field("${status}" "1" cache memory)
expect_field("${status}" "0" cache disk)
expect_field("${status}" "1" cache cold)
string(JSON cache_outcomes LENGTH "${status}" cache)
if(NOT cache_outcomes EQUAL 3)
    message(FATAL_ERROR "status cache block: expected memory, disk and "
                        "cold only, in:\n${status}")
endif()
expect_field("${status}" "1" plan_cache hits)
expect_field("${status}" "1" plan_cache misses)
expect_field("${status}" "2" latency execute_seconds count)
expect_field("${status}" "2" latency queue_wait_seconds count)
foreach(p p50 p90 p95 p99)
    string(JSON q GET "${status}" latency execute_seconds ${p})
    if(q LESS_EQUAL 0)
        message(FATAL_ERROR "status latency ${p}: expected > 0, got '${q}'")
    endif()
endforeach()

# The on-demand status op is a pure read: cumulative counters only,
# never an interval block (that belongs to periodic lines).
string(JSON interval ERROR_VARIABLE json_err GET "${status}" interval)
if(json_err STREQUAL "NOTFOUND")
    message(FATAL_ERROR "status op carried an interval block:\n${status}")
endif()

# --status-every 1 put periodic status lines on stderr, each carrying
# true interval deltas. Two compile groups completed (a's group and
# f's), so there are exactly two periodic lines, every one with an
# interval block whose completed counts sum to the cumulative total.
string(FIND "${err}" "cmswitch-serve-status-v1" at)
if(NOT at EQUAL -1)
    message(FATAL_ERROR "stale status-v1 schema on stderr:\n${err}")
endif()
string(REPLACE "\n" ";" err_lines "${err}")
set(periodic "")
foreach(line IN LISTS err_lines)
    string(FIND "${line}" "cmswitch-serve-status-v3" at)
    if(NOT at EQUAL -1)
        list(APPEND periodic "${line}")
    endif()
endforeach()
list(LENGTH periodic n_periodic)
if(NOT n_periodic EQUAL 2)
    message(FATAL_ERROR "expected 2 periodic status lines, "
                        "got ${n_periodic}:\n${err}")
endif()
set(interval_total 0)
foreach(line IN LISTS periodic)
    string(JSON c GET "${line}" interval completed)
    if(c LESS_EQUAL 0)
        message(FATAL_ERROR "periodic interval completed: expected > 0, "
                            "got '${c}' in:\n${line}")
    endif()
    math(EXPR interval_total "${interval_total} + ${c}")
endforeach()
list(GET periodic 1 last_periodic)
string(JSON cumulative GET "${last_periodic}" requests completed)
if(NOT interval_total EQUAL cumulative)
    message(FATAL_ERROR "interval completed deltas (${interval_total}) do "
                        "not sum to the cumulative count (${cumulative})")
endif()

message(STATUS "serve_smoke: stdin session checks passed")

# --- 2. Unix-socket daemon + client, SIGTERM shutdown -----------------

if(NOT UNIX)
    message(STATUS "serve_smoke: skipping socket checks (not UNIX)")
    return()
endif()

set(sock ${WORK_DIR}/serve.sock)
set(pidfile ${WORK_DIR}/serve.pid)

# Background the daemon through sh so execute_process returns at once;
# the wrapper stays behind the daemon and records its exit code. The
# whole background group is redirected away from the inherited pipes —
# anything still holding this process's stdout/stderr would keep ctest
# waiting for EOF until the test timeout.
execute_process(
    COMMAND sh -c "{ '${CMSWITCHC}' serve --socket '${sock}' \
--pid-file '${pidfile}' --max-inflight 1 --max-queue 1 \
> '${WORK_DIR}/daemon.out' 2> '${WORK_DIR}/daemon.err'; \
echo $? > '${WORK_DIR}/daemon.exit'; } > /dev/null 2>&1 < /dev/null &"
    RESULT_VARIABLE result)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "could not launch the serve daemon (${result})")
endif()

# The pid file is written only after listen() succeeds: poll for it as
# the readiness signal.
set(ready FALSE)
foreach(i RANGE 100)
    if(EXISTS ${pidfile})
        set(ready TRUE)
        break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(NOT ready)
    file(READ ${WORK_DIR}/daemon.err err)
    message(FATAL_ERROR "daemon never became ready:\n${err}")
endif()

# A socket session with one coalesced duplicate (h rides g under hold)
# and one admission shed (i at a full 1-slot queue, lower priority).
file(WRITE ${WORK_DIR}/client.txt
"# serve_smoke socket session
{\"op\":\"hold\",\"id\":\"ch\"}
{\"op\":\"compile\",\"id\":\"g\",\"model\":\"tiny-mlp\",\"priority\":5}
{\"op\":\"compile\",\"id\":\"h\",\"model\":\"tiny-mlp\",\"priority\":5}
{\"op\":\"compile\",\"id\":\"i\",\"model\":\"tiny-mlp\",\"chip\":\"prime\"}
{\"op\":\"release\",\"id\":\"cr\"}
{\"op\":\"drain\",\"id\":\"cd\"}
{\"op\":\"status\",\"id\":\"cs\"}
")
execute_process(COMMAND ${CMSWITCHC} serve --connect ${sock}
                        --script ${WORK_DIR}/client.txt
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE result
                TIMEOUT 120)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "serve client failed (${result}):\n${err}")
endif()
expect_no_empty_lines("${out}" "socket session's responses")
string(REPLACE "\n" ";" lines "${out}")

response_for(g lines resp)
expect_field("${resp}" "ok" status)
expect_field("${resp}" "cold" cache)
response_for(h lines resp)
string(JSON coalesced GET "${resp}" coalesced)
if(NOT coalesced)
    message(FATAL_ERROR "socket duplicate 'h' not marked coalesced")
endif()
response_for(i lines resp)
expect_field("${resp}" "shed" status)
expect_field("${resp}" "admission" reason)
response_for(cs lines status)
expect_field("${status}" "cmswitch-serve-status-v3" schema)
expect_field("${status}" "3" requests received)
expect_field("${status}" "1" requests admitted)
expect_field("${status}" "1" requests coalesced)
expect_field("${status}" "1" requests shed_admission)
expect_field("${status}" "2" requests completed)

# SIGTERM: the daemon must drain, report the signal, unlink its socket
# and pid file, and exit 0.
file(READ ${pidfile} daemon_pid)
string(STRIP "${daemon_pid}" daemon_pid)
execute_process(COMMAND sh -c "kill -TERM ${daemon_pid}"
                RESULT_VARIABLE result)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "could not signal daemon pid ${daemon_pid}")
endif()
set(stopped FALSE)
foreach(i RANGE 100)
    if(EXISTS ${WORK_DIR}/daemon.exit)
        set(stopped TRUE)
        break()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(NOT stopped)
    message(FATAL_ERROR "daemon did not exit after SIGTERM")
endif()
file(READ ${WORK_DIR}/daemon.exit daemon_exit)
string(STRIP "${daemon_exit}" daemon_exit)
if(NOT daemon_exit EQUAL 0)
    file(READ ${WORK_DIR}/daemon.err err)
    message(FATAL_ERROR "daemon exited ${daemon_exit} on SIGTERM:\n${err}")
endif()
file(READ ${WORK_DIR}/daemon.err err)
string(FIND "${err}" "shutting down (signal)" at)
if(at EQUAL -1)
    message(FATAL_ERROR "daemon stderr missing shutdown message:\n${err}")
endif()
if(EXISTS ${sock})
    message(FATAL_ERROR "daemon left its socket behind: ${sock}")
endif()
if(EXISTS ${pidfile})
    message(FATAL_ERROR "daemon left its pid file behind: ${pidfile}")
endif()

message(STATUS "serve_smoke: all checks passed "
               "(stdin + socket sessions, clean SIGTERM shutdown)")
