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
# the same way, before it writes anything.
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
