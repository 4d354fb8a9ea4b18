# Runs one analysis tool and checks its exit status and its whole output
# against golden files.
#
#   cmake -DTOOL=<binary> -DARGS=<a|b|...> -DEXPECT_EXIT=<n>
#         -DGOLDEN=<golden/prefix> -DOUT_DIR=<scratch dir>
#         -P expect_exit.cmake
#
# Arguments are '|'-separated and resolved against the working directory,
# so fixture names in messages stay relative.  An argument may name
# @OUT@, which becomes OUT_DIR (emptied first); OUT_DIR in stdout and
# stderr reads back as @OUT@.  stdout must equal <prefix>.stdout and
# stderr <prefix>.stderr byte for byte (a missing golden means empty),
# and the files the tool writes under OUT_DIR must be exactly the other
# <prefix>.<file name> goldens, each byte for byte.  A mismatch leaves
# the actual output next to OUT_DIR as <dir>.stdout / <dir>.stderr.
cmake_policy(VERSION 3.20)
string(REPLACE "|" ";" arg_list "${ARGS}")
string(REPLACE "@OUT@" "${OUT_DIR}" arg_list "${arg_list}")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${TOOL}" ${arg_list}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(REPLACE "${OUT_DIR}" "@OUT@" out "${out}")
string(REPLACE "${OUT_DIR}" "@OUT@" err "${err}")
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
foreach(stream stdout stderr)
  if(stream STREQUAL "stdout")
    set(actual "${out}")
  else()
    set(actual "${err}")
  endif()
  set(expected "")
  if(EXISTS "${GOLDEN}.${stream}")
    file(READ "${GOLDEN}.${stream}" expected)
  endif()
  if(NOT actual STREQUAL expected)
    file(WRITE "${OUT_DIR}.${stream}" "${actual}")
    message(FATAL_ERROR "${stream} differs from ${GOLDEN}.${stream}; "
                        "actual in ${OUT_DIR}.${stream}:\n${actual}")
  endif()
endforeach()
# Written files and their goldens match one to one: a missing side fails
# compare_files too.
file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
get_filename_component(golden_dir "${GOLDEN}" DIRECTORY)
get_filename_component(prefix "${GOLDEN}" NAME)
string(LENGTH "${prefix}." prefix_len)
file(GLOB goldens RELATIVE "${golden_dir}" "${GOLDEN}.*")
foreach(golden IN LISTS goldens)
  string(SUBSTRING "${golden}" ${prefix_len} -1 name)
  if(NOT name MATCHES "^std(out|err)$")
    list(APPEND written "${name}")
  endif()
endforeach()
list(REMOVE_DUPLICATES written)
foreach(name IN LISTS written)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${OUT_DIR}/${name}" "${GOLDEN}.${name}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${OUT_DIR}/${name} differs from ${GOLDEN}.${name}")
  endif()
endforeach()
