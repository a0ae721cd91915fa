# Runs `nabsim run ARGS` and passes only when nabsim rejects the input: a
# nonzero exit and an error naming every "|"-separated string in EXPECT.
#   cmake -DNABSIM=path -DARGS="--f one" -DEXPECT="--f|'one'" -P nabsim_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${NABSIM}" run ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "nabsim accepted `${ARGS}`")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
foreach(needle IN LISTS expected)
  string(FIND "${err}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "nabsim's error does not name ${needle}:\n${err}")
  endif()
endforeach()
