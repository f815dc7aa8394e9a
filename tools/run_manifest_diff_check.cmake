# ctest driver for the manifest half of `balsort_analyze --diff`
# (DESIGN.md §12): two `balsort_cli --selftest` runs at D=8 must diff clean
# (exit 0), and a run at D=4 diffed against the first must exit 1 naming
# config.d. Invoked as
#   cmake -DCLI=... -DANALYZE=... -DOUT_DIR=... -P run_manifest_diff_check.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(run a:8 b:8 c:4)
  string(REPLACE ":" ";" run "${run}")
  list(GET run 0 name)
  list(GET run 1 disks)
  execute_process(
    COMMAND "${CLI}" --selftest --disks ${disks} --manifest "${OUT_DIR}/${name}.json"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "balsort_cli --selftest --disks ${disks} failed (rc=${rc})")
  endif()
endforeach()
execute_process(
  COMMAND "${ANALYZE}" --diff "${OUT_DIR}/a.json" "${OUT_DIR}/b.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "two identical selftest manifests must diff clean, got ${rc}:\n${out}")
endif()
execute_process(
  COMMAND "${ANALYZE}" --diff "${OUT_DIR}/a.json" "${OUT_DIR}/c.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--disks 8 vs --disks 4 manifests must exit 1, got ${rc}:\n${out}")
endif()
string(FIND "${out}" "config.d" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "the D=8 vs D=4 diff must name config.d:\n${out}")
endif()
message(STATUS "balsort_analyze --diff manifest contract holds")
