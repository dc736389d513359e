# Portable-RNG lint: fails, listing each hit, if a source file under
# SRC_DIR names a standard-library random engine or distribution, or
# std::hash. Their streams and values differ between standard
# libraries, so every draw goes through support/random.hpp's
# xoshiro256** and hand-mapped draws, which give one seed the same
# stream everywhere, and every seed or digest derived from a string
# goes through support/hash.hpp's FNV-1a.
#
#   cmake -DSRC_DIR=<checkout>/src -P portable_rng_lint.cmake

if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
    message(FATAL_ERROR "portable_rng_lint: SRC_DIR must name src/")
endif()

set(pattern "std::(mt19937|random_device|[a-z_]+_distribution|hash<)")
file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp"
     "${SRC_DIR}/*.h")
set(hits "")
foreach(path IN LISTS sources)
    file(STRINGS "${path}" lines REGEX "${pattern}")
    if(lines)
        file(RELATIVE_PATH rel "${SRC_DIR}" "${path}")
        foreach(line IN LISTS lines)
            string(STRIP "${line}" line)
            string(APPEND hits "\n  src/${rel}: ${line}")
        endforeach()
    endif()
endforeach()

if(hits)
    message(FATAL_ERROR "standard-library RNG or hash names under src/ "
                        "(use support/random.hpp or support/hash.hpp "
                        "instead):${hits}")
endif()
list(LENGTH sources scanned)
message(STATUS "portable_rng_lint: ${scanned} files, no hits")
