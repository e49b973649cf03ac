# A misspelt WSIM_INTERP is a usage error: `wsim` exits 2 with the --interp
# message instead of silently running the default engine. An explicit
# --interp still wins over the environment.
#
#   cmake -DWSIM=path/to/wsim -P interp_env_error.cmake
set(ENV{WSIM_INTERP} turbo)
execute_process(COMMAND ${WSIM} devices
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "WSIM_INTERP=turbo: expected exit 2, got ${rc}")
endif()
string(FIND "${err}" "error: unknown interpreter 'turbo' for --interp" at)
if(at EQUAL -1)
  message(FATAL_ERROR "WSIM_INTERP=turbo: missing the --interp error:\n${err}")
endif()
execute_process(COMMAND ${WSIM} devices --interp fast
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "WSIM_INTERP=turbo --interp fast: expected exit 0, got ${rc}")
endif()
# A bare --interp (no value) is the same usage error, not the default
# engine, whether or not WSIM_INTERP names a valid engine.
foreach(env_value IN ITEMS "" fast)
  set(ENV{WSIM_INTERP} "${env_value}")
  execute_process(COMMAND ${WSIM} devices --interp
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "WSIM_INTERP='${env_value}' --interp: expected exit 2, got ${rc}")
  endif()
  string(FIND "${err}" "error: unknown interpreter '' for --interp" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "WSIM_INTERP='${env_value}' --interp: missing the --interp error:\n${err}")
  endif()
endforeach()
