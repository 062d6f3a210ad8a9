# Runs EXE with ARGS (a ;-list) and fails unless it exits 0 and its stdout
# is byte-identical to the file GOLDEN. Used by ctest to gate printed
# verdict tables:
#   cmake -DEXE=<binary> -DARGS="2;1;2;3" -DGOLDEN=<file> -P compare_stdout.cmake
# With -DSTOP_AT=<prefix>, only the stdout before the first line that starts
# with <prefix> is compared, and a stdout without such a line fails: the
# bench tables end in a runtime-stats footer whose counters move with every
# performance change.
string(REPLACE ";" " " command "${EXE};${ARGS}")
execute_process(COMMAND ${EXE} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${command} exited with ${status}")
endif()
if(DEFINED STOP_AT)
  # Searching "\n" + stdout finds a match on the first line too; the index
  # is then where the matching line starts in stdout itself.
  string(FIND "\n${actual}" "\n${STOP_AT}" stop)
  if(stop EQUAL -1)
    message(FATAL_ERROR "${command}: no stdout line starts with ${STOP_AT}")
  endif()
  string(SUBSTRING "${actual}" 0 ${stop} actual)
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${command}: stdout differs from ${GOLDEN}\n--- got ---\n${actual}")
endif()
