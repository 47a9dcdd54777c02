# Fails, naming each one, when the interpreter's op loop calls one of the
# helpers its ops inline: Value::as_int, as_real, as_logical and
# coerce_to, element_of and apply_intrinsic.  GCC leaves even one-line
# helpers out of line in a function as large as run_ops unless they are
# forced inline (DESIGN.md §13).  Both run_ops and the .cold part GCC
# splits from it are searched; calls to the helpers' own failure paths
# (a p_assert_msg lambda, real_to_int) are not helper calls.  A run_ops
# that is not found fails too, so a renamed op loop cannot pass.
#
#   cmake -DOBJDUMP=<objdump> -DBINARY=<polaris> -P run_ops_inlines.cmake
cmake_minimum_required(VERSION 3.16)
set(symbol _ZN7polaris11Interpreter7run_opsEPKNS_2OpERPNS_5ValueERNS_5FrameE)
set(helpers "as_int|as_real|as_logical|coerce_to|element_of|apply_intrinsic")
set(calls "")
foreach(part ${symbol} ${symbol}.cold)
  execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn
                          --disassemble=${part} ${BINARY}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} failed on ${BINARY}:\n${err}")
  endif()
  if(part STREQUAL symbol AND NOT out MATCHES "<${symbol}>:")
    message(FATAL_ERROR "${BINARY} has no symbol ${symbol}")
  endif()
  # A call or tail jump whose target is a helper itself (a mangled name
  # that starts _ZN, where a lambda local to the helper starts _ZZ).
  string(REGEX MATCHALL
         "[^\n]*(call|jmp)[^\n]*<_ZNK?[^>\n]*[0-9](${helpers})E[^>\n]*>"
         found "${out}")
  list(APPEND calls ${found})
endforeach()
if(calls)
  list(LENGTH calls count)
  string(REPLACE ";" "\n" shown "${calls}")
  message(FATAL_ERROR "run_ops makes ${count} helper calls:\n${shown}")
endif()
message(STATUS "run_ops calls none of ${helpers}")
