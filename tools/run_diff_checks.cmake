# ctest driver for the two-channel comparator's exit codes (DESIGN.md §12).
# Every committed fixture is diffed against diff_base.json through both
# CLIs that wrap the comparator, `balsort_analyze --diff` and
# `benchgate --baseline`, and both must give the same exit code:
#   identity                -> 0 (identical model quantities)
#   io_steps 1327->1328     -> 1 (model drift)
#   wall 0.5s->5.0s         -> 0 + "wall drift" (wall drift only warns)
#   extra row in new suite  -> 0 + WARN (a row in only one suite warns)
#   suite id difffix2       -> 1 (a different suite id fails)
#   invariant2 flipped      -> 1 (invariant drift)
#   model.blocks missing    -> 2 (not a valid suite)
# Invoked as
#   cmake -DANALYZE=... -DBENCHGATE=... -DFIXTURES=... -P run_diff_checks.cmake

# check(<fixture> <expected exit code> [<text the output must contain>])
function(check fixture want)
  foreach(cmd "${ANALYZE};--diff" "${BENCHGATE};--baseline")
    execute_process(
      COMMAND ${cmd} "${FIXTURES}/diff_base.json" "${FIXTURES}/${fixture}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
    list(JOIN cmd " " shown)
    if(NOT rc EQUAL want)
      message(FATAL_ERROR "${shown} ${fixture} must exit ${want}, got ${rc}:\n${out}")
    endif()
    if(ARGC GREATER 2)
      string(FIND "${out}" "${ARGV2}" pos)
      if(pos EQUAL -1)
        message(FATAL_ERROR "${shown} ${fixture} must print \"${ARGV2}\":\n${out}")
      endif()
    endif()
  endforeach()
endfunction()

check(diff_base.json 0)
check(diff_model.json 1 "model.io_steps")
check(diff_wall.json 0 "wall drift")
check(diff_row.json 0 "WARN")
check(diff_suite.json 1 "suite id")
check(diff_invariant.json 1 "invariants.invariant2")
check(diff_noblocks.json 2 "model.blocks")
message(STATUS "balsort_analyze --diff and benchgate --baseline agree on every fixture")
