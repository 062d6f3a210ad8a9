# Runs EXE with ARGS (a ;-list) and fails unless it exits 0 and its stdout
# is byte-identical to the file GOLDEN. Used by ctest to gate printed
# verdict tables:
#   cmake -DEXE=<binary> -DARGS="2;1;2;3" -DGOLDEN=<file> -P compare_stdout.cmake
string(REPLACE ";" " " command "${EXE};${ARGS}")
execute_process(COMMAND ${EXE} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${command} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "${command}: stdout differs from ${GOLDEN}\n--- got ---\n${actual}")
endif()
