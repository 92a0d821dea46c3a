# Runs one paper-figure bench and fails unless its stdout equals the
# committed expected file byte for byte.
#
#   cmake -DBENCH=<executable> -DEXPECTED=<bench/expected/name.txt> \
#         -DACTUAL=<where to keep this run's stdout> -P check_output.cmake
#
# To re-record after a change that moves a paper number on purpose, copy
# ACTUAL over EXPECTED and state the cause in the commit.
foreach(var BENCH EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH}"
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${EXPECTED}" "${ACTUAL}"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${EXPECTED}")
endif()
