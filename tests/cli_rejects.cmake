# Runs `DRIVER ARGS` and passes only when the driver rejects the input: exit
# code 2 (the drivers' usage-error code; a crash or a silent run fails) and
# an error naming every "|"-separated string in EXPECT.
#   cmake -DDRIVER=path -DARGS="--f one" -DEXPECT="--f|'one'" -P cli_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DRIVER}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
get_filename_component(driver "${DRIVER}" NAME)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${driver} `${ARGS}` exited with ${rc}, not 2:\n${err}")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
foreach(needle IN LISTS expected)
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${driver}'s error does not name ${needle}:\n${err}")
  endif()
endforeach()
