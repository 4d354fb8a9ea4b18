# Runs one analysis tool and checks its exit status and output.
#
#   cmake -DTOOL=<binary> -DARGS=<a|b|...> -DEXPECT_EXIT=<n>
#         -DEXPECT_STDERR=<first stderr line> [-DEXPECT_STDOUT=<line>]
#         -P expect_exit.cmake
#
# Arguments are '|'-separated and resolved against the working directory,
# so fixture names in messages stay relative.  EXPECT_STDERR pins the
# first line of stderr (empty: stderr must be empty); a non-empty
# EXPECT_STDOUT must appear as a whole line of stdout.
string(REPLACE "|" ";" arg_list "${ARGS}")
execute_process(COMMAND "${TOOL}" ${arg_list}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "\n" eol)
string(SUBSTRING "${err}" 0 ${eol} first)
if(NOT first STREQUAL "${EXPECT_STDERR}")
  message(FATAL_ERROR "first stderr line '${first}', expected "
                      "'${EXPECT_STDERR}'")
endif()
if(NOT "${EXPECT_STDOUT}" STREQUAL "")
  string(FIND "\n${out}" "\n${EXPECT_STDOUT}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stdout lacks the line '${EXPECT_STDOUT}':\n${out}")
  endif()
endif()
