# ctest script: balsortd must reject a bad flag or job-file field with a
# usage error — "balsortd: <reason>" plus usage on stderr, exit 2 — and
# leave no scratch file behind. Invoked as
#   cmake -DBALSORTD=<balsortd> -DWORK=<empty work dir> -P run_balsortd_bad_config_check.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/scratch")
set(good "name=a n=20000 workload=uniform seed=1 m=4096 p=2")

# Each case: the job-file line, then the extra flags.
set(cases
  "${good}|--disks abc"
  "${good}|--disks 0"
  "${good}|--block 0"
  "${good}|--max-active 0"
  "${good}|--stats-port x"
  "${good}|--stats-port 70000"
  "${good}|--tick soon"
  "${good}|--backend tape"
  "name=b n=abc m=4096|"
  "name=b n=20000 m=4k|"
  "name=b n=20000 m=4096 p=-1|"
  "name=b n=20000 m=4096 threads=x|"
  "name=b n=20000 m=4096 priority=0|"
  "name=b n=20000 m=64 p=1|"
  "name=b n=20000 m=4096 color=red|")
set(i 0)
foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} job)
  math(EXPR rest "${bar} + 1")
  string(SUBSTRING "${case}" ${rest} -1 flagstr)
  separate_arguments(flags UNIX_COMMAND "${flagstr}")
  math(EXPR i "${i} + 1")
  file(WRITE "${WORK}/jobs${i}.txt" "${job}\n")
  execute_process(
    COMMAND "${BALSORTD}" "${WORK}/jobs${i}.txt" --backend file --scratch "${WORK}/scratch"
            --disks 4 --block 32 ${flags}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "balsortd '${job}' ${flags}: exit '${rc}', expected 2\n${err}")
  endif()
  if(NOT err MATCHES "^balsortd: [^\n]+\nusage: ")
    message(FATAL_ERROR "balsortd '${job}' ${flags}: expected a reason line then usage, got:\n${err}")
  endif()
  file(GLOB left "${WORK}/scratch/*")
  if(left)
    message(FATAL_ERROR "balsortd '${job}' ${flags}: left files behind: ${left}")
  endif()
endforeach()
message(STATUS "${i} bad configurations rejected with exit 2")
