# Runs a bench or example binary with a bad flag value and requires a
# clean input error: exit code 2 and a stderr message that names the flag
# (an uncaught exception would abort with SIGABRT instead).
#
#   cmake -DBIN=<binary> -DFLAG=--instances -DVALUE=-1 \
#         -P bench_bad_flag.cmake
execute_process(COMMAND "${BIN}" "${FLAG}" "${VALUE}"
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${code}'\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${FLAG}:\n${err}")
endif()
