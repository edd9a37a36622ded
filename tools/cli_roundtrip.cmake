# End-to-end check of the cgraf_cli text-format pipeline and its one
# telemetry stream:
#
#   cmake -DCLI=path/to/cgraf_cli -DWORK=scratch/dir -P cli_roundtrip.cmake
#
# Runs gen -> place -> remap --log-events -> certify -> analyze
# --chrome-trace. Every step must exit 0, remap must report its floorplan
# certified, and the trace must hold the remap as an 'X' span named
# remap.end. analyze reads a log and writes none, so --log-events must be
# rejected there as an unknown option (exit 2). The simplex has a single
# configuration, so remap must reject a flag that picks a simplex variant
# the same way, before it writes anything, and --progress is no flag at
# all (the log is the only telemetry channel).
#
# remap --verbose must end with the post-mortem `analyze` prints for the
# run's log (recorded in memory, or in the --log-events file verbatim)
# and write the same floorplan as the traced remap. A fix-once run on two
# branch & bound workers (the only threaded solver) drains the workers'
# records before the fold, under TSan in CI, and its lock table must show
# the workers' shared node-pool mutex.
#
# Bad option values must exit 1 before any work, writing nothing: seeds
# that are not plain unsigned integers, gen parameters beyond the input-lint
# ceilings, a --margin outside [0, 1), and a --st-target that is negative,
# NaN or infinite (each would switch the certifier's stress bound off).

# Runs the command in ARGN and fails unless it exits with `expected`. The
# command's stdout is left in `last_out`.
function(expect_exit expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL expected)
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "`${cmd}` exited ${code}, expected ${expected}\n"
                        "${out}${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
expect_exit(0 "${CLI}" gen --spec B13 --out "${WORK}/d.cgraf")
expect_exit(0 "${CLI}" place --design "${WORK}/d.cgraf"
            --out "${WORK}/base.fp")
expect_exit(0 "${CLI}" remap --design "${WORK}/d.cgraf"
            --floorplan "${WORK}/base.fp" --out "${WORK}/aged.fp"
            --log-events "${WORK}/events.jsonl")
if(NOT last_out MATCHES "certified: yes")
  message(FATAL_ERROR "remap did not certify its floorplan:\n${last_out}")
endif()
expect_exit(0 "${CLI}" certify --design "${WORK}/d.cgraf"
            --baseline "${WORK}/base.fp" --floorplan "${WORK}/aged.fp")
expect_exit(0 "${CLI}" analyze "${WORK}/events.jsonl"
            --chrome-trace "${WORK}/trace.json")

file(READ "${WORK}/trace.json" trace)
if(NOT trace MATCHES "\\{\"name\":\"remap\\.end\",[^{}]*\"ph\":\"X\"")
  message(FATAL_ERROR "${WORK}/trace.json has no 'X' span named remap.end")
endif()

# Fails unless `text` contains every later argument verbatim.
function(expect_contains what text)
  foreach(part ${ARGN})
    string(FIND "${text}" "${part}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${what} does not contain '${part}':\n${text}")
    endif()
  endforeach()
endfunction()

expect_exit(0 "${CLI}" remap --design "${WORK}/d.cgraf"
            --floorplan "${WORK}/base.fp" --out "${WORK}/verbose.fp"
            --verbose)
expect_contains("remap --verbose" "${last_out}" "certified: yes"
                "=== solve-event log post-mortem ===" "--- remap attempts (")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${WORK}/aged.fp" "${WORK}/verbose.fp"
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "remap --verbose wrote a floorplan that differs from "
                      "the traced remap's")
endif()

expect_exit(0 "${CLI}" remap --design "${WORK}/d.cgraf"
            --floorplan "${WORK}/base.fp" --out "${WORK}/verbose.fp"
            --verbose --log-events "${WORK}/verbose.jsonl")
set(verbose_out "${last_out}")
expect_exit(0 "${CLI}" analyze "${WORK}/verbose.jsonl")
string(FIND "${verbose_out}" "${last_out}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "remap --verbose --log-events does not print the "
                      "text of `analyze` verbatim:\n${verbose_out}")
endif()

expect_exit(0 "${CLI}" remap --design "${WORK}/d.cgraf"
            --floorplan "${WORK}/base.fp" --out "${WORK}/portfolio.fp"
            --strategy portfolio --verbose)
expect_contains("remap --strategy portfolio --verbose" "${last_out}"
                "--- remap attempts (" "| portfolio races" "oracle calls"
                "start repairs")

expect_exit(0 "${CLI}" gen --spec B7 --out "${WORK}/b7.cgraf")
expect_exit(0 "${CLI}" place --design "${WORK}/b7.cgraf"
            --out "${WORK}/b7.fp")
expect_exit(0 "${CLI}" remap --design "${WORK}/b7.cgraf"
            --floorplan "${WORK}/b7.fp" --out "${WORK}/b7_aged.fp"
            --strategy fix-once --threads 2 --verbose)
expect_contains("remap --strategy fix-once --threads 2 --verbose"
                "${last_out}" "certified: yes" "--- remap attempts ("
                "bnb.shared")

foreach(cmd "gen;--spec;B13"
            "remap;--design;${WORK}/d.cgraf;--floorplan;${WORK}/base.fp")
  file(REMOVE "${WORK}/x.out")
  expect_exit(2 "${CLI}" ${cmd} --out "${WORK}/x.out" --progress)
  if(EXISTS "${WORK}/x.out")
    message(FATAL_ERROR "${cmd} wrote ${WORK}/x.out despite rejecting "
                        "--progress")
  endif()
endforeach()

expect_exit(2 "${CLI}" analyze "${WORK}/events.jsonl"
            --log-events "${WORK}/x.jsonl")
if(EXISTS "${WORK}/x.jsonl")
  message(FATAL_ERROR "analyze wrote ${WORK}/x.jsonl despite rejecting "
                      "--log-events")
endif()

expect_exit(2 "${CLI}" remap --design "${WORK}/d.cgraf"
            --floorplan "${WORK}/base.fp" --lp-algorithm auto
            --out "${WORK}/x.fp")
if(EXISTS "${WORK}/x.fp")
  message(FATAL_ERROR "remap wrote ${WORK}/x.fp despite rejecting an "
                      "unknown option")
endif()

# Runs the command in ARGN, which must exit 1 and leave no ${WORK}/x.out.
function(expect_rejected)
  file(REMOVE "${WORK}/x.out")
  expect_exit(1 ${ARGN})
  if(EXISTS "${WORK}/x.out")
    string(REPLACE ";" " " cmd "${ARGN}")
    message(FATAL_ERROR "`${cmd}` wrote ${WORK}/x.out despite failing")
  endif()
endfunction()

foreach(flag "--seed;bogus" "--seed;12x" "--contexts;4294967300"
             "--usage;nan" "--dim;260")
  expect_rejected("${CLI}" gen ${flag} --out "${WORK}/x.out")
endforeach()
# Each value passes its own range check, but together they ask for up to
# 4096 x 400 ops, past the loaders' 1 M-op limit.
expect_rejected("${CLI}" gen --contexts 4096 --dim 20 --usage 1
                --out "${WORK}/x.out")
expect_exit(0 "${CLI}" gen --contexts 4 --dim 4 --usage 0.5 --seed 7
            --out "${WORK}/custom.cgraf")
expect_rejected("${CLI}" place --design "${WORK}/d.cgraf" --seed -1
                --out "${WORK}/x.out")
foreach(flag "--seed;12x" "--ls-seed;-1" "--ls-iters;4294967297"
             "--margin;-5" "--margin;2" "--margin;nan")
  expect_rejected("${CLI}" remap --design "${WORK}/d.cgraf"
                  --floorplan "${WORK}/base.fp" ${flag} --out "${WORK}/x.out")
endforeach()
foreach(flag "--margin;-5" "--margin;2" "--margin;nan"
             "--st-target;nan" "--st-target;-1" "--st-target;inf")
  expect_rejected("${CLI}" lint --design "${WORK}/d.cgraf"
                  --floorplan "${WORK}/base.fp" ${flag})
  expect_rejected("${CLI}" certify --design "${WORK}/d.cgraf"
                  --baseline "${WORK}/base.fp" --floorplan "${WORK}/aged.fp"
                  ${flag})
endforeach()
