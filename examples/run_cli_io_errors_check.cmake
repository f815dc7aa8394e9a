# ctest script: balsort_cli must turn an I/O failure into
# "balsort_cli: <reason>" and a non-zero exit, leaving the destination as it
# was and no scratch file behind. Invoked as
#   cmake -DCLI=<balsort_cli> -DWORK=<empty work dir> -P run_cli_io_errors_check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/scratch")
string(REPEAT "0123456789abcdef" 4096 records) # 4,096 records of 16 bytes
file(WRITE "${WORK}/in.bin" "${records}")
file(WRITE "${WORK}/ragged.bin" "${records}x") # not a multiple of 16 bytes
file(WRITE "${WORK}/out.bin" "untouched")

# (input, output[, extra flags]): an output directory that does not exist,
# a missing input, an input whose size is not a whole number of records,
# and --resume from a checkpoint that does not exist.
foreach(case IN ITEMS "in.bin;no_such_dir/out.bin" "no_such_input.bin;out.bin"
                      "ragged.bin;out.bin"
                      "in.bin;out.bin;--checkpoint;${WORK}/absent.ck;--resume")
  list(GET case 0 in)
  list(GET case 1 out)
  set(extra ${case})
  list(REMOVE_AT extra 0 1)
  execute_process(
    COMMAND "${CLI}" "${WORK}/${in}" "${WORK}/${out}" --mem 1024 --disks 4 --block 64
            --scratch "${WORK}/scratch" ${extra}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "balsort_cli ${in} ${out}: exit 0, expected a failure")
  endif()
  if(NOT err MATCHES "^balsort_cli: [^\n]+\n$")
    message(FATAL_ERROR "balsort_cli ${in} ${out}: expected one reason line, got:\n${err}")
  endif()
  file(READ "${WORK}/out.bin" kept)
  file(GLOB left "${WORK}/scratch/*" "${WORK}/*.tmp")
  if(NOT kept STREQUAL "untouched" OR left OR EXISTS "${WORK}/no_such_dir")
    message(FATAL_ERROR "balsort_cli ${in} ${out}: changed the destination or left files: ${left}")
  endif()
endforeach()
message(STATUS "I/O failures exit non-zero and leave the destination untouched")
