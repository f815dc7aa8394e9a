# ctest script: every sort path of balsort_cli must pass the fused output
# check (exit 0), and a --checkpoint run must write the same bytes as a
# plain balance run. Invoked as
#   cmake -DCLI=<balsort_cli> -DWORK=<empty work dir> -P run_cli_algos_check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/scratch")
string(RANDOM LENGTH 800000 RANDOM_SEED 7 records) # 50,000 records of 16 bytes
file(WRITE "${WORK}/in.bin" "${records}")
set(shape --mem 8192 --disks 4 --block 64 --scratch "${WORK}/scratch")

foreach(run IN ITEMS "balance;--algo;balance" "greed;--algo;greed" "merge;--algo;merge"
                     "checkpoint;--checkpoint;${WORK}/ck.bin")
  list(POP_FRONT run name)
  execute_process(
    COMMAND "${CLI}" "${WORK}/in.bin" "${WORK}/out_${name}.bin" ${shape} ${run}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "balsort_cli ${run}: exit '${rc}', expected 0\n${err}")
  endif()
  file(SIZE "${WORK}/out_${name}.bin" size)
  if(NOT size EQUAL 800000)
    message(FATAL_ERROR "balsort_cli ${run}: output has ${size} bytes, expected 800000")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK}/out_balance.bin" "${WORK}/out_checkpoint.bin"
  RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "--checkpoint output differs from the plain balance run")
endif()
file(GLOB left "${WORK}/scratch/*" "${WORK}/*.tmp" "${WORK}/ck.bin*")
if(left)
  message(FATAL_ERROR "balsort_cli left files behind: ${left}")
endif()
message(STATUS "balance, greed, merge and checkpoint runs passed the output check")
