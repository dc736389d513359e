# The persistent plan cache acceptance gate, driven through real
# cmswitchc processes (the cross-process claim needs processes, not
# threads):
#   1. two successive single-mode runs with one --cache-dir: byte-
#      identical reports, the second reporting a disk hit on stderr;
#   2. corrupted / truncated / version-bumped artifact files silently
#      recompile and still produce the identical report;
#   3. `cache stats` sees the *lifetime* totals those five processes
#      merged into the stats sidecar;
#   4. the full 3-chip x 4-workload x 4-compiler batch matrix run cold
#      (serial) then warm (4 threads) over a shared --cache-dir: the
#      warm pass compiles nothing (every unique key is a disk hit),
#      every per-job report is byte-identical to the cold serial run,
#      and the v7 summaries carry matching sidecar/fingerprint fields;
#   5. `cache gc --max-bytes N` on a copy of the warm directory keeps
#      at most N plan bytes, `cache verify` passes the warm directory,
#      and `cache gc --max-bytes 0` then reaps every artifact but never
#      the sidecar.
# Every cache dir holds only *.plan files and the stats sidecar, so gc
# sees (and bounds) all of it: `cache gc --max-bytes N` leaves at most
# N plan bytes behind.
# Run as `cmake -DCMSWITCHC=<exe> -DWORK_DIR=<dir> -P cache_smoke.cmake`.

if(NOT CMSWITCHC)
    message(FATAL_ERROR "pass -DCMSWITCHC=<path to cmswitchc>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()

# A failed run aborts mid-script (FATAL_ERROR) and leaves its scratch
# tree behind; this guard removes any such leftovers so repeated local
# runs always start cold. The tail of a *successful* run removes the
# tree too.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(cache_dir ${WORK_DIR}/plan-cache)

# --- 1. single mode: second process must warm-start from disk ---------

function(run_single report expect_pattern)
    execute_process(COMMAND ${CMSWITCHC} --model resnet18 --stats
                            --emit-json ${report} --cache-dir ${cache_dir}
                    RESULT_VARIABLE result
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc --cache-dir failed (${result}):\n${err}")
    endif()
    if(NOT err MATCHES "${expect_pattern}")
        message(FATAL_ERROR "expected stderr to match '${expect_pattern}', "
                            "got:\n${err}")
    endif()
endfunction()

run_single(${WORK_DIR}/cold.json "plan cache miss; stored")
run_single(${WORK_DIR}/warm.json "plan cache disk hit")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/cold.json ${WORK_DIR}/warm.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "cold and warm single-mode reports differ")
endif()

# --- 2. damaged artifacts must silently recompile ---------------------

file(GLOB plans ${cache_dir}/*.plan)
list(LENGTH plans plan_count)
if(NOT plan_count EQUAL 1)
    message(FATAL_ERROR "expected 1 plan file after single runs, "
                        "got ${plan_count}")
endif()
list(GET plans 0 plan_file)

# Bit corruption (same size, different content).
file(WRITE ${plan_file} "cmswitch-plan-v1\nthis is not a real artifact")
run_single(${WORK_DIR}/recompiled.json "plan cache miss; stored")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/cold.json ${WORK_DIR}/recompiled.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "report after corrupt-artifact recompile differs")
endif()

# Version mismatch: a v2 tag from the future must be ignored by the v1
# reader (new tag == new format; old readers reject, recompile, and
# overwrite).
file(WRITE ${plan_file} "cmswitch-plan-v2\npayload from the future")
run_single(${WORK_DIR}/devolved.json "plan cache miss; stored")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/cold.json ${WORK_DIR}/devolved.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "report after version-mismatch recompile differs")
endif()

# Truncation: an empty (or cut-short) plan file recompiles too.
file(WRITE ${plan_file} "")
run_single(${WORK_DIR}/retruncated.json "plan cache miss; stored")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/cold.json ${WORK_DIR}/retruncated.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "report after truncated-artifact recompile differs")
endif()

# expect_only_plans(<dir> <bytes_var>): ${dir} holds nothing but *.plan
# artifacts and the stats sidecar; returns the plan bytes.
function(expect_only_plans dir bytes_var)
    file(GLOB entries LIST_DIRECTORIES true "${dir}/*")
    set(bytes 0)
    foreach(entry IN LISTS entries)
        get_filename_component(name "${entry}" NAME)
        if(name STREQUAL "cache-stats.sidecar")
            continue()
        endif()
        if(IS_DIRECTORY "${entry}" OR NOT name MATCHES "\\.plan$")
            message(FATAL_ERROR "${dir} holds '${name}': expected only "
                                "*.plan files and cache-stats.sidecar")
        endif()
        file(SIZE "${entry}" size)
        math(EXPR bytes "${bytes} + ${size}")
    endforeach()
    set(${bytes_var} ${bytes} PARENT_SCOPE)
endfunction()

expect_only_plans(${cache_dir} single_bytes)

# --- 3. cache stats: lifetime totals survive across processes ---------

# run_cache(<out_var> <verb> <args...>): run a `cmswitchc cache` verb
# and return its stdout JSON report.
function(run_cache out_var verb)
    execute_process(COMMAND ${CMSWITCHC} cache ${verb} ${ARGN}
                    RESULT_VARIABLE result
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc cache ${verb} failed (${result}):\n"
                            "${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# expect_json(<document> <expected> <path...>): check one JSON field.
function(expect_json document expected)
    string(JSON actual GET "${document}" ${ARGN})
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR "json ${ARGN}: expected '${expected}', "
                            "got '${actual}'")
    endif()
endfunction()

# Five single-mode processes touched the cache above: 1 cold miss+store,
# 1 warm hit, then 3 damaged-artifact runs (reject+miss+store each).
# Each process flushed its counters into the sidecar on exit; `cache
# stats` (a sixth process) must see the merged lifetime totals.
run_cache(stats_doc stats --cache-dir ${cache_dir})
expect_json("${stats_doc}" ON sidecar_present)
expect_json("${stats_doc}" 1 hits)
expect_json("${stats_doc}" 4 misses)
expect_json("${stats_doc}" 4 stores)
expect_json("${stats_doc}" 3 rejected)
expect_json("${stats_doc}" 1 plan_files)
expect_json("${stats_doc}" ${single_bytes} plan_bytes)
string(JSON build_fingerprint GET "${stats_doc}" fingerprint)

# --- 4. batch matrix: cold serial, then warm multi-threaded -----------

set(tiny_chip ${WORK_DIR}/tiny.chip)
file(WRITE ${tiny_chip} "\
name = tiny
technology = edram
num_switch_arrays = 16
array_rows = 128
array_cols = 128
buffer_bytes = 64
internal_bw = 2
extern_bw = 4
buffer_bw = 1
op_per_cycle = 8
write_row_latency = 2
fu_ops_per_cycle = 16
")

set(workloads
    "--model resnet18"
    "--model mobilenetv2"
    "--model bert-base --layers 2 --seq 64"
    "--model opt-6.7b --decode 256 --layers 2")
set(compilers cmswitch cim-mlc occ puma)

set(jobs "# full scenario matrix\n")
set(job_count 0)
foreach(chip dynaplasia prime ${tiny_chip})
    foreach(workload IN LISTS workloads)
        foreach(compiler IN LISTS compilers)
            string(APPEND jobs
                   "${workload} --chip ${chip} --compiler ${compiler}\n")
            math(EXPR job_count "${job_count} + 1")
        endforeach()
    endforeach()
endforeach()
set(jobs_file ${WORK_DIR}/jobs.txt)
file(WRITE ${jobs_file} "${jobs}")
set(batch_cache ${WORK_DIR}/batch-plan-cache)

# run_batch(<threads> <out_dir> <cache_dir> [extra batch flags...])
function(run_batch threads out_dir cache)
    execute_process(COMMAND ${CMSWITCHC} batch --jobs ${jobs_file}
                            --threads ${threads} --out-dir ${out_dir}
                            --cache-dir ${cache} ${ARGN}
                    RESULT_VARIABLE result
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc batch --threads ${threads} "
                            "${ARGN} --cache-dir failed (${result}):\n${err}")
    endif()
endfunction()

run_batch(1 ${WORK_DIR}/cold-serial ${batch_cache})
run_batch(4 ${WORK_DIR}/warm-mt ${batch_cache})

# expect_summary(<expected> <path...>): check one summary field.
function(expect_summary summary expected)
    string(JSON actual GET "${summary}" ${ARGN})
    if(NOT actual STREQUAL expected)
        message(FATAL_ERROR "summary ${ARGN}: expected '${expected}', "
                            "got '${actual}'")
    endif()
endfunction()

# Cold pass: nothing on disk yet -> every unique key misses disk and is
# stored; warm pass: every unique key is served from disk, zero stores.
# The v7 summaries also carry the cross-process sidecar totals (cold
# flushed before its summary, warm sees cold's flush plus its own) and
# the build fingerprint every process of this build agrees on.
file(READ ${WORK_DIR}/cold-serial/summary.json cold_summary)
expect_summary("${cold_summary}" cmswitch-batch-summary-v7 schema)
expect_summary("${cold_summary}" ${job_count} jobs)
expect_summary("${cold_summary}" 0 invalid_jobs)
expect_summary("${cold_summary}" ${job_count} cache disk_misses)
expect_summary("${cold_summary}" ${job_count} cache disk_stores)
expect_summary("${cold_summary}" 0 cache disk_hits)
expect_summary("${cold_summary}" 0 cache sidecar_hits)
expect_summary("${cold_summary}" ${job_count} cache sidecar_misses)
expect_summary("${cold_summary}" ${job_count} cache sidecar_stores)
expect_summary("${cold_summary}" 0 cache sidecar_touch_failed)
expect_summary("${cold_summary}" ${build_fingerprint} cache fingerprint)
# v4: the latency section's deterministic halves — every cold job
# compiled (one kPhaseCompile sample each), every job executed.
expect_summary("${cold_summary}" ${job_count} latency compile_seconds count)
expect_summary("${cold_summary}" ${job_count} latency execute_seconds count)
expect_summary("${cold_summary}" ${job_count} latency queue_wait_seconds count)

file(READ ${WORK_DIR}/warm-mt/summary.json warm_summary)
expect_summary("${warm_summary}" 0 invalid_jobs)
expect_summary("${warm_summary}" ${job_count} cache disk_hits)
expect_summary("${warm_summary}" 0 cache disk_misses)
expect_summary("${warm_summary}" 0 cache disk_stores)
expect_summary("${warm_summary}" 0 cache disk_rejected)
expect_summary("${warm_summary}" ${job_count} cache sidecar_hits)
expect_summary("${warm_summary}" ${job_count} cache sidecar_misses)
expect_summary("${warm_summary}" ${job_count} cache sidecar_stores)
expect_summary("${warm_summary}" ${build_fingerprint} cache fingerprint)
# Warm pass serves every job from disk: zero compiles, full executes.
expect_summary("${warm_summary}" 0 latency compile_seconds count)
expect_summary("${warm_summary}" ${job_count} latency execute_seconds count)

# Warm multi-threaded reports must be byte-identical to cold serial.
file(GLOB reports RELATIVE ${WORK_DIR}/cold-serial
     ${WORK_DIR}/cold-serial/job*.json)
list(LENGTH reports report_count)
if(NOT report_count EQUAL ${job_count})
    message(FATAL_ERROR "expected ${job_count} cold reports, "
                        "got ${report_count}")
endif()
foreach(report IN LISTS reports)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${WORK_DIR}/cold-serial/${report}
                            ${WORK_DIR}/warm-mt/${report}
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR "${report} differs between the cold serial "
                            "and warm 4-thread runs")
    endif()
endforeach()

expect_only_plans(${batch_cache} batch_bytes)

# --- 5. lifecycle: verify passes, gc reaps plans but not the sidecar --

# A byte budget bounds the whole directory: gc a copy of the batch
# cache to half its plan bytes; gc keeps some plans and leaves at most
# the budget behind.
set(budget_cache ${WORK_DIR}/budget-plan-cache)
file(COPY ${batch_cache}/ DESTINATION ${budget_cache})
math(EXPR budget "${batch_bytes} / 2")
run_cache(budget_doc gc --cache-dir ${budget_cache} --max-bytes ${budget})
expect_only_plans(${budget_cache} kept_bytes)
if(kept_bytes GREATER budget OR kept_bytes EQUAL 0)
    message(FATAL_ERROR "cache gc --max-bytes ${budget} left ${kept_bytes} "
                        "plan bytes (of ${batch_bytes})")
endif()

run_cache(verify_doc verify --cache-dir ${batch_cache})
expect_json("${verify_doc}" ${job_count} scanned_files)
expect_json("${verify_doc}" ${job_count} valid_files)
expect_json("${verify_doc}" 0 damaged_files)
expect_json("${verify_doc}" ON clean)

run_cache(gc_doc gc --cache-dir ${batch_cache} --max-bytes 0)
expect_json("${gc_doc}" ${job_count} scanned_files)
expect_json("${gc_doc}" ${job_count} deleted_files)
expect_json("${gc_doc}" 0 kept_files)

# Post-gc: the artifacts are gone, the sidecar totals are not. The
# warm pass hit once per job, the cold pass missed+stored once per job.
run_cache(post_gc_stats stats --cache-dir ${batch_cache})
expect_json("${post_gc_stats}" 0 plan_files)
expect_json("${post_gc_stats}" ON sidecar_present)
expect_json("${post_gc_stats}" ${job_count} hits)
expect_json("${post_gc_stats}" ${job_count} misses)
expect_json("${post_gc_stats}" ${job_count} stores)

message(STATUS "cache_smoke: single-mode warm start, damaged-artifact "
               "recompile, sidecar stats, ${job_count}-job warm batch, "
               "and gc/verify lifecycle all check out")

# Success: leave nothing behind (the guard at the top handles the
# leftovers of *failed* runs).
file(REMOVE_RECURSE "${WORK_DIR}")
