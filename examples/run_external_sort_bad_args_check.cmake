# ctest script: external_sort_files must reject a malformed number or an
# impossible machine shape with a usage error — "external_sort_files:
# <reason>" plus usage on stderr, exit 2 — and create no file in its
# scratch directory. Invoked as
#   cmake -DEXAMPLE=<external_sort_files> -DWORK=<empty work dir>
#         -P run_external_sort_bad_args_check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

foreach(bad IN ITEMS "abc" "abc;4096;4;64" "50000;4k;4;64" "-1;4096;4;64" "0;4096;4;64"
                     "50000;4096;0;64" "50000;4096;4;0" "50000;100;4;64")
  execute_process(
    COMMAND "${EXAMPLE}" ${bad} "${WORK}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "external_sort_files ${bad}: exit '${rc}', expected 2\n${err}")
  endif()
  if(NOT err MATCHES "^external_sort_files: [^\n]+\nusage: ")
    message(FATAL_ERROR "external_sort_files ${bad}: expected a reason line then usage, got:\n${err}")
  endif()
  file(GLOB left "${WORK}/*")
  if(left)
    message(FATAL_ERROR "external_sort_files ${bad}: left files behind: ${left}")
  endif()
endforeach()

execute_process(COMMAND "${EXAMPLE}" --help RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^usage: ")
  message(FATAL_ERROR "external_sort_files --help: exit '${rc}', output:\n${out}")
endif()
message(STATUS "bad arguments rejected with exit 2")
