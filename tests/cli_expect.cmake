# Runs one or more commands and checks that each exits with EXPECT_EXIT
# and prints (stdout or stderr) something matching the EXPECT_OUTPUT regex
# and nothing matching the EXPECT_NO_OUTPUT regex (each optional).
# ctest's PASS_REGULAR_EXPRESSION and FAIL_REGULAR_EXPRESSION ignore the
# exit code and WILL_FAIL accepts any failure, so none of them can tell a
# validation error (exit 1) from a usage error (exit 2) or a crash that
# printed the expected text.
#
#   cmake -DEXPECT_EXIT=N [-DEXPECT_OUTPUT=REGEX] [-DEXPECT_NO_OUTPUT=REGEX]
#         -P cli_expect.cmake -- CMD [ARG...] [-- CMD [ARG...]]...
cmake_minimum_required(VERSION 3.16)
set(commands "")
set(current "")
set(started FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(arg STREQUAL "--")
    if(started AND current)
      list(APPEND commands "${current}")
    endif()
    set(current "")
    set(started TRUE)
  elseif(started)
    # Commands are stored joined by '|' so one list entry is one command.
    if(current)
      string(APPEND current "|${arg}")
    else()
      set(current "${arg}")
    endif()
  endif()
endforeach()
if(current)
  list(APPEND commands "${current}")
endif()
if(NOT commands)
  message(FATAL_ERROR "cli_expect: no command after --")
endif()

foreach(command IN LISTS commands)
  string(REPLACE "|" ";" argv "${command}")
  execute_process(COMMAND ${argv} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REPLACE ";" " " shown "${argv}")
  if(NOT code STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "${shown}: exit ${code}, expected ${EXPECT_EXIT}\n"
                        "${out}${err}")
  endif()
  if(DEFINED EXPECT_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "${shown}: output does not match "
                        "'${EXPECT_OUTPUT}'\n${out}${err}")
  endif()
  if(DEFINED EXPECT_NO_OUTPUT AND "${out}${err}" MATCHES "${EXPECT_NO_OUTPUT}")
    message(FATAL_ERROR "${shown}: output matches '${EXPECT_NO_OUTPUT}'\n"
                        "${out}${err}")
  endif()
  message(STATUS "${shown}: exit ${code}, output matches")
endforeach()
