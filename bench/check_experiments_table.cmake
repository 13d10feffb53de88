# Keeps EXPERIMENTS.md's "Scheduler decision latency" table in step with
# the committed scheduler benchmark baseline. Invoked as:
#
#   cmake -DBENCH_JSON=<BENCH_sched.json> -DEXPERIMENTS_MD=<EXPERIMENTS.md>
#         -P bench/check_experiments_table.cmake
#
# BENCH_JSON holds repetition aggregates; only the `median` rows are
# read, under the benchmark's name without its `_median` suffix. Every
# such benchmark must have a table row
#
#   | `<name>` | <median real time> |
#
# and every such row must name a benchmark in BENCH_JSON. The time is
# the median real_time in the largest unit (ns, µs, ms, s) that keeps
# it at or above 1, with one decimal below 10 and none above.
# With -DPRINT_TABLE=ON the script prints the table rows instead of
# checking them, which is how the table is regenerated.
if(NOT DEFINED BENCH_JSON)
    message(FATAL_ERROR "pass -DBENCH_JSON=<path to BENCH_sched.json>")
endif()
file(READ "${BENCH_JSON}" json)
# google-benchmark writes the coefficient of variation of an all-zero
# counter as NaN, which is not JSON; no median row depends on it.
string(REPLACE ": NaN" ": null" json "${json}")

# "<digits>[.<digits>]" in @p unit -> integer picoseconds in @p out.
function(to_picoseconds value unit out)
    if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?$")
        message(FATAL_ERROR "unsupported real_time '${value}'")
    endif()
    set(whole "${CMAKE_MATCH_1}")
    set(frac "${CMAKE_MATCH_3}000000000000")
    if(unit STREQUAL "ns")
        set(digits 3)
    elseif(unit STREQUAL "us")
        set(digits 6)
    elseif(unit STREQUAL "ms")
        set(digits 9)
    elseif(unit STREQUAL "s")
        set(digits 12)
    else()
        message(FATAL_ERROR "unsupported time_unit '${unit}'")
    endif()
    string(SUBSTRING "${frac}" 0 ${digits} frac)
    string(REGEX REPLACE "^0+([0-9])" "\\1" frac "${frac}")
    string(REPEAT "0" ${digits} scale)
    math(EXPR ps "${whole} * 1${scale} + ${frac}")
    set(${out} "${ps}" PARENT_SCOPE)
endfunction()

# Integer picoseconds -> the table's rounded text in @p out.
function(format_time ps out)
    if(ps LESS 1000000)
        set(unit_ps 1000)
        set(name "ns")
    elseif(ps LESS 1000000000)
        set(unit_ps 1000000)
        set(name "µs")
    elseif(ps LESS 1000000000000)
        set(unit_ps 1000000000)
        set(name "ms")
    else()
        set(unit_ps 1000000000000)
        set(name "s")
    endif()
    math(EXPR tenths "(${ps} * 10 + ${unit_ps} / 2) / ${unit_ps}")
    if(tenths LESS 100)
        math(EXPR ones "${tenths} / 10")
        math(EXPR tenth "${tenths} % 10")
        set(${out} "${ones}.${tenth} ${name}" PARENT_SCOPE)
    else()
        math(EXPR ones "(${ps} + ${unit_ps} / 2) / ${unit_ps}")
        set(${out} "${ones} ${name}" PARENT_SCOPE)
    endif()
endfunction()

# Expected row text per benchmark median, in recording order.
set(expected_rows "")
string(JSON count LENGTH "${json}" benchmarks)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
    string(JSON aggregate ERROR_VARIABLE no_aggregate
           GET "${json}" benchmarks ${i} aggregate_name)
    if(no_aggregate OR NOT aggregate STREQUAL "median")
        continue()
    endif()
    string(JSON name GET "${json}" benchmarks ${i} name)
    string(REGEX REPLACE "_median$" "" name "${name}")
    string(JSON real GET "${json}" benchmarks ${i} real_time)
    string(JSON unit GET "${json}" benchmarks ${i} time_unit)
    to_picoseconds("${real}" "${unit}" ps)
    format_time(${ps} text)
    list(APPEND expected_rows "| `${name}` | ${text} |")
endforeach()

if(PRINT_TABLE)
    message("| benchmark | real time |")
    message("|---|---|")
    foreach(row IN LISTS expected_rows)
        message("${row}")
    endforeach()
    return()
endif()

if(NOT DEFINED EXPERIMENTS_MD)
    message(FATAL_ERROR "pass -DEXPERIMENTS_MD=<path to EXPERIMENTS.md>")
endif()
file(STRINGS "${EXPERIMENTS_MD}" table_rows ENCODING UTF-8
     REGEX "^\\| `BM_[^`]*` \\|")

set(problems "")
foreach(row IN LISTS expected_rows)
    list(FIND table_rows "${row}" at)
    if(at EQUAL -1)
        string(APPEND problems "\n  missing or stale: ${row}")
    endif()
endforeach()
foreach(row IN LISTS table_rows)
    list(FIND expected_rows "${row}" at)
    if(at EQUAL -1)
        string(APPEND problems "\n  not in ${BENCH_JSON}: ${row}")
    endif()
endforeach()
if(problems)
    message(FATAL_ERROR
        "${EXPERIMENTS_MD} disagrees with ${BENCH_JSON}:${problems}\n"
        "Regenerate the rows with: cmake -DBENCH_JSON=BENCH_sched.json "
        "-DPRINT_TABLE=ON -P bench/check_experiments_table.cmake")
endif()
list(LENGTH expected_rows rows)
message(STATUS "${EXPERIMENTS_MD}: ${rows} benchmark rows match ${BENCH_JSON}")
