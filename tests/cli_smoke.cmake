# CLI smoke test for cmswitchc, run as `cmake -DCMSWITCHC=<exe>
# -DWORK_DIR=<dir> -P cli_smoke.cmake` from CTest. Checks exit codes and
# output shape of the user-facing invocations; any failed check aborts
# with FATAL_ERROR.

if(NOT CMSWITCHC)
    message(FATAL_ERROR "pass -DCMSWITCHC=<path to cmswitchc>")
endif()
if(NOT WORK_DIR)
    message(FATAL_ERROR "pass -DWORK_DIR=<scratch directory>")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_exit code)
    # Remaining arguments are the cmswitchc argv.
    execute_process(COMMAND ${CMSWITCHC} ${ARGN}
                    RESULT_VARIABLE result
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT result EQUAL ${code})
        message(FATAL_ERROR "cmswitchc ${ARGN}: expected exit ${code}, "
                            "got '${result}'\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    set(last_out "${out}" PARENT_SCOPE)
    set(last_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_contains haystack_var needle)
    if(NOT "${${haystack_var}}" MATCHES "${needle}")
        message(FATAL_ERROR "expected ${haystack_var} to contain '${needle}', "
                            "got:\n${${haystack_var}}")
    endif()
endfunction()

# No arguments: usage on stderr, exit 2.
expect_exit(2)
expect_contains(last_err "usage: cmswitchc")

# Usage errors also exit 2 with a pointer at --help.
expect_exit(2 --model)
expect_contains(last_err "needs a value")
expect_exit(2 --frobnicate)
expect_contains(last_err "unknown flag")
expect_exit(2 --model resnet18 --batch abc)
expect_contains(last_err "needs an integer")
expect_exit(2 --model resnet18 --batch -1)
expect_contains(last_err "must be >= 1")

# --help / --version succeed and describe the tool.
expect_exit(0 --help)
expect_contains(last_out "usage: cmswitchc")
expect_contains(last_out "--compiler")
expect_exit(0 --version)
expect_contains(last_out "cmswitchc [0-9]+\\.[0-9]+")

# Real compile: resnet18 on the default dynaplasia chip, stats only.
expect_exit(0 --model resnet18 --chip dynaplasia --stats)
expect_contains(last_err "resnet18")
expect_contains(last_err "cycles")
expect_contains(last_err "estimated energy")

# --- Usage errors of every subcommand: exit 2, message, --help hint ---

# expect_usage(<message regex> <argv...>)
function(expect_usage needle)
    expect_exit(2 ${ARGN})
    expect_contains(last_err "${needle}")
    expect_contains(last_err "run 'cmswitchc --help' for usage")
endfunction()

set(jobs ${WORK_DIR}/jobs.txt)
file(WRITE ${jobs} "--model resnet18\n")
set(out_dir ${WORK_DIR}/reports)

expect_usage("batch mode requires --jobs" batch --out-dir ${out_dir})
expect_usage("batch mode requires --out-dir" batch --jobs ${jobs})
expect_usage("--jobs needs a value" batch --out-dir ${out_dir} --jobs)
expect_usage("unknown batch flag '--frobnicate'"
             batch --jobs ${jobs} --out-dir ${out_dir} --frobnicate)

# A job line takes only the per-compile flags: not --help, and not the
# outputs, cache, search width or observability, which are batch-level.
file(WRITE ${WORK_DIR}/help-job.txt "# comment\n--model resnet18 --help\n")
expect_usage("help-job.txt line 2: unknown flag '--help'"
             batch --jobs ${WORK_DIR}/help-job.txt --out-dir ${out_dir})
foreach(flag "--out x" "--emit-json x" "--cache-dir x" "--stats"
             "--search-threads 2" "--trace x" "--metrics x")
    file(WRITE ${WORK_DIR}/flag-job.txt "--model resnet18 ${flag}\n")
    string(REGEX REPLACE " .*" "" name "${flag}")
    expect_usage("${name}"
                 batch --jobs ${WORK_DIR}/flag-job.txt --out-dir ${out_dir})
endforeach()
# The plan search runs serially; no mode takes a search width.
expect_usage("unknown flag '--search-threads'"
             --model resnet18 --search-threads 2)
expect_usage("unknown batch flag '--search-threads'"
             batch --jobs ${jobs} --out-dir ${out_dir} --search-threads 2)
expect_usage("unknown sim flag '--search-threads'" sim --search-threads 2)
# Serve is fed an empty stdin, so a daemon that accepted the flag would
# end its session and exit 0 instead of waiting for requests.
file(WRITE ${WORK_DIR}/empty.txt "")
execute_process(COMMAND ${CMSWITCHC} serve --search-threads 2
                INPUT_FILE ${WORK_DIR}/empty.txt
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 2
   OR NOT err MATCHES "unknown serve flag '--search-threads'")
    message(FATAL_ERROR "serve --search-threads 2: expected exit 2 naming "
                        "the flag, got '${result}'\nstderr:\n${err}")
endif()
if(EXISTS ${out_dir})
    message(FATAL_ERROR "a rejected batch created ${out_dir}")
endif()

set(sock ${WORK_DIR}/no-daemon.sock)
expect_usage("serve --connect requires --script" serve --connect ${sock})
expect_usage("serve --script only makes sense with --connect"
             serve --script ${jobs})
expect_usage("serve --connect \\(client\\) and --socket \\(daemon\\)"
             serve --connect ${sock} --script ${jobs} --socket ${sock})
expect_usage("serve --pid-file requires --socket"
             serve --pid-file ${WORK_DIR}/serve.pid)
expect_usage("--max-inflight must be >= 1, got 0" serve --max-inflight 0)

expect_usage("sim mode requires --scenario" sim)
expect_usage("--threads must be >= 1, got 0" sim --threads 0)

set(plans ${WORK_DIR}/plans)
expect_usage("cache mode requires a verb: gc, stats, or verify" cache)
expect_usage("unknown cache verb 'frobnicate' \\(expected gc, stats, or verify\\)"
             cache frobnicate)
expect_usage("cache gc needs --max-bytes and/or --max-age"
             cache gc --cache-dir ${plans})
expect_usage("unknown cache stats flag '--max-bytes'"
             cache stats --cache-dir ${plans} --max-bytes 1)
expect_usage("cache verify requires --cache-dir" cache verify)
if(EXISTS ${plans})
    message(FATAL_ERROR "a rejected cache command created ${plans}")
endif()

expect_usage("unknown fingerprint flag '--frobnicate'"
             fingerprint --frobnicate)

# --help works under every subcommand and prints the one usage text.
foreach(sub "batch" "serve" "sim" "cache" "cache gc" "cache stats"
            "cache verify" "fingerprint")
    separate_arguments(sub_args UNIX_COMMAND "${sub}")
    expect_exit(0 ${sub_args} --help)
    expect_contains(last_out "usage: cmswitchc")
endforeach()

# The usage text names every flag the parser accepts, in any mode.
expect_exit(0 --help)
foreach(flag
        --model --chip --compiler --batch --seq --decode --layers
        --optimize --out --emit-json --cache-dir --stats
        --trace --metrics --help --version
        --jobs --out-dir --threads --summary --cache-capacity --job-latency
        --socket --pid-file --max-inflight --max-queue --status-every
        --connect --script
        --scenario
        --max-bytes --max-age --delete)
    expect_contains(last_out "${flag}[^-a-z]")
endforeach()
if(last_out MATCHES "--search-threads")
    message(FATAL_ERROR "the usage text still names --search-threads")
endif()

# --- --stats drops only the stdout dump; --out still writes ---------

expect_exit(0 --model resnet18 --out ${WORK_DIR}/plain.cmprog)
expect_exit(0 --model resnet18 --stats --out ${WORK_DIR}/stats.cmprog)
if(NOT last_out STREQUAL "")
    message(FATAL_ERROR "--stats --out printed the program:\n${last_out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/plain.cmprog ${WORK_DIR}/stats.cmprog
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "--stats --out wrote no program, or another one")
endif()

# --- Names resolve as the serve daemon resolves them ------------------

expect_exit(1 --model resnet18 --layers 3 --out ${WORK_DIR}/layers.cmprog)
expect_contains(last_err "'decode'/'layers' need a transformer model")
expect_exit(1 --model resnet18 --decode 4 --stats)
expect_contains(last_err "'decode'/'layers' need a transformer model")
expect_exit(1 --model no-such-model --stats)
expect_contains(last_err "unknown model 'no-such-model'")
expect_exit(0 --model tiny-mlp --stats)
expect_contains(last_err "tinymlp")
expect_exit(0 --help)
expect_contains(last_out "tiny-mlp")

# A preset chip name never reads the working directory: neither a
# `prime/` directory (say from `batch --out-dir prime`) nor a file named
# `dynaplasia` there may stand in for the preset. Nor is a directory
# read as a file: a `resnet18/` directory leaves the zoo model as it
# is, and a `foo/` directory is no chip file.
# stats_in(<dir> <out var> <argv...>): the deterministic part of the
# resnet18 --stats summary when cmswitchc runs in <dir>.
function(stats_in dir var)
    execute_process(COMMAND ${CMSWITCHC} --model resnet18 --stats ${ARGN}
                    WORKING_DIRECTORY ${dir}
                    RESULT_VARIABLE result
                    ERROR_VARIABLE err)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "cmswitchc --model resnet18 --stats ${ARGN} in "
                            "${dir}: exit '${result}'\nstderr:\n${err}")
    endif()
    string(REGEX MATCH "[0-9]+ segments, [0-9]+ cycles" plan "${err}")
    string(REGEX MATCH "energy [0-9.]+ uJ" energy "${err}")
    set(${var} "${plan}, ${energy}" PARENT_SCOPE)
endfunction()
set(shadow ${WORK_DIR}/shadow)
file(MAKE_DIRECTORY ${shadow}/prime ${shadow}/foo ${shadow}/resnet18)
file(WRITE ${shadow}/dynaplasia "not a chip description\n")
stats_in(${WORK_DIR} prime_want --chip prime)
stats_in(${WORK_DIR} default_want)
if(prime_want STREQUAL default_want)
    message(FATAL_ERROR "prime and dynaplasia give the same summary: "
                        "${prime_want}")
endif()
stats_in(${shadow} prime_got --chip prime)
stats_in(${shadow} default_got)
if(NOT prime_got STREQUAL prime_want OR NOT default_got STREQUAL default_want)
    message(FATAL_ERROR "a prime/ or resnet18/ directory or a dynaplasia "
                        "file changed the compile: prime ${prime_got} (want "
                        "${prime_want}), default ${default_got} (want "
                        "${default_want})")
endif()
execute_process(COMMAND ${CMSWITCHC} --model resnet18 --stats --chip foo
                WORKING_DIRECTORY ${shadow}
                RESULT_VARIABLE result
                ERROR_VARIABLE err)
if(NOT result EQUAL 1
   OR NOT err MATCHES "unknown chip 'foo' \\(not a preset, not a file\\)")
    message(FATAL_ERROR "--chip foo beside a foo/ directory: expected exit "
                        "1 and an unknown-chip error, got '${result}'\n"
                        "stderr:\n${err}")
endif()

# A job line's names are checked on the main thread and reported with
# its line number; its zoo workload builds on the worker threads, which
# report a failure instead of exiting.
file(WRITE ${WORK_DIR}/compiler-job.txt "--model resnet18 --compiler nope\n")
expect_exit(1 batch --jobs ${WORK_DIR}/compiler-job.txt --out-dir ${out_dir})
expect_contains(last_err "line 1: unknown compiler 'nope'")
file(WRITE ${WORK_DIR}/layers-job.txt
     "--model tiny-mlp\n--model resnet18 --layers 2\n")
expect_exit(1 batch --jobs ${WORK_DIR}/layers-job.txt --out-dir ${out_dir}
              --threads 2)
expect_contains(last_err
    "layers-job.txt line 2: 'decode'/'layers' need a transformer model")
file(WRITE ${WORK_DIR}/decode-job.txt
     "--model tiny-mlp\n--model bert-base --decode 4\n")
expect_exit(1 batch --jobs ${WORK_DIR}/decode-job.txt --out-dir ${out_dir}
              --threads 2)
expect_contains(last_err
    "decode-job.txt line 2: 'decode' needs a decoder-only model")

message(STATUS "cli_smoke: all checks passed")
