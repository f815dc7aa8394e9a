# ctest script: balsort_cli must reject an impossible machine shape with a
# usage error — "balsort_cli: <reason>" plus usage on stderr, exit 2 — and
# leave no scratch file behind. Invoked as
#   cmake -DCLI=<balsort_cli> -DWORK=<empty work dir> -P run_bad_config_check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/scratch")
string(REPEAT "0123456789abcdef" 64 records) # 64 records of 16 bytes
file(WRITE "${WORK}/in.bin" "${records}")

foreach(bad IN ITEMS "--mem;512;--block;256" "--disks;0" "--block;0")
  execute_process(
    COMMAND "${CLI}" "${WORK}/in.bin" "${WORK}/out.bin" --scratch "${WORK}/scratch" ${bad}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "balsort_cli ${bad}: exit '${rc}', expected 2\n${err}")
  endif()
  if(NOT err MATCHES "^balsort_cli: [^\n]+\nusage: ")
    message(FATAL_ERROR "balsort_cli ${bad}: expected a reason line then usage, got:\n${err}")
  endif()
  file(GLOB left "${WORK}/scratch/*")
  if(left OR EXISTS "${WORK}/out.bin")
    message(FATAL_ERROR "balsort_cli ${bad}: left files behind: ${left}")
  endif()
endforeach()
message(STATUS "bad configurations rejected with exit 2")
