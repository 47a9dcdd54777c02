# Fails when a flag spelling or POLARIS_* variable that `polaris` prints in
# its usage text is missing from README.md, or when such a variable has no
# `-u NAME` in tools/update_suite_baseline.sh (whose profiling run must not
# inherit it from the caller's shell).
#
#   cmake -DPOLARIS=BINARY -DREADME=README.md -DSCRUB=SCRIPT \
#         -P flags_documented.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND "${POLARIS}" RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE usage)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "polaris with no arguments exited ${code}, not 2")
endif()
file(READ "${README}" readme)
file(READ "${SCRUB}" scrub)

# Flag rows start with two spaces and the spelling: "-report", "-jobs=N",
# "-p N".
string(REGEX MATCHALL "\n  -[a-z][a-z-]*(=[A-Z]+| [A-Z]+)?" flags
       "\n${usage}")
string(REGEX MATCHALL "POLARIS_[A-Z_]+" vars "${usage}")
list(REMOVE_DUPLICATES vars)
if(NOT flags OR NOT vars)
  message(FATAL_ERROR "no flag rows or POLARIS_* names in:\n${usage}")
endif()

set(missing "")
foreach(flag IN LISTS flags)
  string(STRIP "${flag}" flag)
  string(FIND "${readme}" "`${flag}`" at)
  if(at EQUAL -1)
    string(APPEND missing "  README.md lacks `${flag}`\n")
  endif()
endforeach()
foreach(var IN LISTS vars)
  string(FIND "${readme}" "`${var}`" at)
  if(at EQUAL -1)
    string(APPEND missing "  README.md lacks `${var}`\n")
  endif()
  string(FIND "${scrub}" "-u ${var}" at)
  if(at EQUAL -1)
    string(APPEND missing "  ${SCRUB} lacks -u ${var}\n")
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR "undocumented flags or variables:\n${missing}")
endif()
list(LENGTH flags n_flags)
list(LENGTH vars n_vars)
message(STATUS "${n_flags} flags and ${n_vars} POLARIS_* variables "
               "documented")
