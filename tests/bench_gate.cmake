# Compile-time perf gate: compare a fresh cmswitch-bench-v1 report
# against the checked-in baseline and fail red on regression.
#
#   cmake -DREPORT=<BENCH_compile_time.json>
#         -DBASELINE=<bench/baselines/compile_time.json>
#         [-DTOLERANCE_PERCENT=60] [-DMIN_SPEEDUP_MILLI=2000]
#         -P tests/bench_gate.cmake
#
# Checks:
#  1. Per workload, cmswitch_seconds must not exceed the baseline by
#     more than TOLERANCE_PERCENT (default +/-60%; only the slow side
#     fails — a big improvement prints a baseline-refresh nudge).
#     Workloads under the noise floor (5ms baseline) are informational.
#     The default is sized for shared/containerised dev machines,
#     where identical binaries oscillate +/-40% run-to-run as
#     neighbour load shifts; the machine-independent ratio floors
#     below are the real regression gates, the wall-time check only
#     has to catch order-of-magnitude blowups.
#  2. summary.geomean_speedup_vs_reference must stay >= MIN_SPEEDUP
#     (default 2.000, expressed in thousandths): the optimized search
#     must keep its lead over the retained pre-optimization search.
#
# Environment overrides (useful on noisy shared CI runners):
#   CMSWITCH_BENCH_GATE_TOLERANCE_PERCENT, CMSWITCH_BENCH_GATE_MIN_SPEEDUP_MILLI
#
# On failure the gate prints how to refresh the baseline; see
# "Compile-time benchmarking" in README.md.

cmake_minimum_required(VERSION 3.20)

if(NOT REPORT OR NOT BASELINE)
    message(FATAL_ERROR "pass -DREPORT=<report.json> -DBASELINE=<baseline.json>")
endif()

if(DEFINED ENV{CMSWITCH_BENCH_GATE_TOLERANCE_PERCENT})
    set(TOLERANCE_PERCENT $ENV{CMSWITCH_BENCH_GATE_TOLERANCE_PERCENT})
elseif(NOT DEFINED TOLERANCE_PERCENT)
    set(TOLERANCE_PERCENT 60)
endif()
if(DEFINED ENV{CMSWITCH_BENCH_GATE_MIN_SPEEDUP_MILLI})
    set(MIN_SPEEDUP_MILLI $ENV{CMSWITCH_BENCH_GATE_MIN_SPEEDUP_MILLI})
elseif(NOT DEFINED MIN_SPEEDUP_MILLI)
    set(MIN_SPEEDUP_MILLI 2000)
endif()

# Noise floor: wall-time deltas below this baseline are informational
# only (a 1ms workload regressing 40% is scheduler jitter, not code).
set(NOISE_FLOOR_NANOS 5000000)

set(REFRESH_HINT
    "to refresh the baseline after an intentional perf change:\n\
  cmake --build build -j && ./build/bench/fig18_compile_time \
--repeats 10 --out bench/baselines/compile_time.json\n\
then commit bench/baselines/compile_time.json with the change that \
moved the numbers.")

# Parse a JSON decimal number (plain or scientific notation) into
# integer nanoseconds-scale fixed point: round(value * 10^9). CMake's
# math(EXPR) is 64-bit integer only, so all gate arithmetic happens in
# this fixed-point domain.
function(to_nanos value out_var)
    if(NOT value MATCHES "^(-?)([0-9]+)(\\.([0-9]*))?([eE]([+-]?[0-9]+))?$")
        message(FATAL_ERROR "bench_gate: unparseable number '${value}'")
    endif()
    set(sign "${CMAKE_MATCH_1}")
    set(int_part "${CMAKE_MATCH_2}")
    set(frac_part "${CMAKE_MATCH_4}")
    set(exponent 0)
    if(CMAKE_MATCH_6)
        set(exponent ${CMAKE_MATCH_6})
        math(EXPR exponent "${exponent}") # normalise "+05" -> 5
    endif()
    # digits * 10^(exponent - frac_digits + 9)
    set(digits "${int_part}${frac_part}")
    string(LENGTH "${frac_part}" frac_len)
    math(EXPR shift "${exponent} - ${frac_len} + 9")
    # Strip leading zeros so math(EXPR) never sees octal-looking input.
    # (REGEX REPLACE would re-apply "^" after each replacement, eating
    # interior zeros — measure the prefix and substring instead.)
    if(digits MATCHES "^0")
        string(REGEX MATCH "^0+" leading_zeros "${digits}")
        string(LENGTH "${leading_zeros}" lead_len)
        string(LENGTH "${digits}" total_len)
        if(lead_len EQUAL total_len)
            set(digits 0)
        else()
            string(SUBSTRING "${digits}" ${lead_len} -1 digits)
        endif()
    endif()
    set(result ${digits})
    if(shift GREATER 0)
        foreach(i RANGE 1 ${shift})
            math(EXPR result "${result} * 10")
            if(result GREATER 4611686018427387904)
                message(FATAL_ERROR "bench_gate: number too large '${value}'")
            endif()
        endforeach()
    elseif(shift LESS 0)
        math(EXPR neg_shift "0 - ${shift}")
        foreach(i RANGE 1 ${neg_shift})
            math(EXPR result "${result} / 10")
        endforeach()
    endif()
    if(sign STREQUAL "-")
        math(EXPR result "0 - ${result}")
    endif()
    set(${out_var} ${result} PARENT_SCOPE)
endfunction()

file(READ ${REPORT} report_json)
file(READ ${BASELINE} baseline_json)

foreach(doc IN ITEMS report baseline)
    string(JSON ${doc}_schema GET "${${doc}_json}" schema)
    if(NOT ${doc}_schema STREQUAL "cmswitch-bench-v1")
        message(FATAL_ERROR
                "bench_gate: ${doc} has schema '${${doc}_schema}', "
                "expected cmswitch-bench-v1")
    endif()
endforeach()

# Index the report's workloads by name.
string(JSON report_count LENGTH "${report_json}" workloads)
math(EXPR report_last "${report_count} - 1")
foreach(i RANGE ${report_last})
    string(JSON name GET "${report_json}" workloads ${i} name)
    string(JSON seconds GET "${report_json}" workloads ${i}
           metrics cmswitch_seconds)
    to_nanos(${seconds} nanos)
    set(report_nanos_${name} ${nanos})
    set(report_seconds_${name} ${seconds})
endforeach()

set(failures "")
string(JSON baseline_count LENGTH "${baseline_json}" workloads)
math(EXPR baseline_last "${baseline_count} - 1")
set(compared 0)
foreach(i RANGE ${baseline_last})
    string(JSON name GET "${baseline_json}" workloads ${i} name)
    string(JSON base_seconds GET "${baseline_json}" workloads ${i}
           metrics cmswitch_seconds)
    to_nanos(${base_seconds} base_nanos)
    if(NOT DEFINED report_nanos_${name})
        list(APPEND failures
             "workload '${name}' is in the baseline but missing from the report")
        continue()
    endif()
    set(cur_nanos ${report_nanos_${name}})
    math(EXPR allowed "${base_nanos} + ${base_nanos} * ${TOLERANCE_PERCENT} / 100")
    math(EXPR floor "${base_nanos} - ${base_nanos} * ${TOLERANCE_PERCENT} / 100")
    math(EXPR compared "${compared} + 1")
    if(base_nanos LESS ${NOISE_FLOOR_NANOS})
        message(STATUS
                "bench_gate: ${name}: ${report_seconds_${name}}s vs baseline "
                "${base_seconds}s (below noise floor, informational)")
    elseif(cur_nanos GREATER ${allowed})
        list(APPEND failures
             "workload '${name}' compile time regressed: \
${report_seconds_${name}}s vs baseline ${base_seconds}s \
(+${TOLERANCE_PERCENT}% tolerance exceeded)")
    elseif(cur_nanos LESS ${floor})
        message(STATUS
                "bench_gate: ${name}: ${report_seconds_${name}}s is >"
                "${TOLERANCE_PERCENT}% faster than baseline ${base_seconds}s"
                " — consider refreshing the baseline")
    else()
        message(STATUS
                "bench_gate: ${name}: ${report_seconds_${name}}s within "
                "${TOLERANCE_PERCENT}% of baseline ${base_seconds}s")
    endif()
endforeach()

if(compared EQUAL 0)
    list(APPEND failures "no workloads compared — empty baseline?")
endif()

# Gate 2: the optimized search must keep its geomean lead over the
# retained reference search.
string(JSON speedup GET "${report_json}" summary geomean_speedup_vs_reference)
to_nanos(${speedup} speedup_nanos)
math(EXPR speedup_milli "${speedup_nanos} / 1000000")
if(speedup_milli LESS ${MIN_SPEEDUP_MILLI})
    list(APPEND failures
         "geomean speedup over the reference search is ${speedup}x, \
below the required ${MIN_SPEEDUP_MILLI}/1000x")
else()
    message(STATUS
            "bench_gate: geomean speedup vs reference search: ${speedup}x "
            "(floor ${MIN_SPEEDUP_MILLI}/1000x)")
endif()

if(failures)
    string(JOIN "\n  " failure_text ${failures})
    message(FATAL_ERROR
            "bench_gate FAILED:\n  ${failure_text}\n${REFRESH_HINT}")
endif()
message(STATUS "bench_gate: PASS (${compared} workloads compared)")
