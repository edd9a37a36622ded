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
