# Fails unless `ctest -L <label>` selects at least one gtest of the binary
# that carries the label — the check that multi-label discovery keeps
# working.
#
#   cmake -DCTEST=<ctest> -DTEST_DIR=<build/tests>
#         -DCHECKS=label:binary[,label:binary...] -P ctest_labels.cmake
cmake_minimum_required(VERSION 3.19)
string(REPLACE "," ";" checks "${CHECKS}")
foreach(check IN LISTS checks)
  string(REPLACE ":" ";" pair "${check}")
  list(GET pair 0 label)
  list(GET pair 1 binary)
  execute_process(COMMAND ${CTEST} -N -L "^${label}$" --show-only=json-v1
                  WORKING_DIRECTORY ${TEST_DIR}
                  OUTPUT_VARIABLE json RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "ctest -N -L ${label} exited ${code}")
  endif()
  string(JSON n LENGTH "${json}" tests)
  set(found 0)
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      string(JSON exe ERROR_VARIABLE no_command
             GET "${json}" tests ${i} command 0)
      if(exe MATCHES "/${binary}$")
        math(EXPR found "${found} + 1")
      endif()
    endforeach()
  endif()
  if(found EQUAL 0)
    message(FATAL_ERROR
            "ctest -L '^${label}$' selects none of ${binary}'s gtests")
  endif()
  message(STATUS "-L ${label}: ${found} of ${binary}'s gtests")
endforeach()
