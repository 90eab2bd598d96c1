# Runs CMD and compares its standard output, byte for byte, with the file
# EXPECTED. On a mismatch the actual output is written to ACTUAL and, when
# a diff tool is on the PATH, the difference is printed.
#
#   cmake -DCMD=<exe> -DEXPECTED=<file> -DACTUAL=<file> -P CompareOutput.cmake
execute_process(COMMAND ${CMD} OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with status ${Rc}")
endif()
file(READ ${EXPECTED} Want)
if(NOT Out STREQUAL Want)
  file(WRITE ${ACTUAL} "${Out}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${EXPECTED} ${ACTUAL})
  endif()
  message(FATAL_ERROR "output of ${CMD} differs from ${EXPECTED} "
                      "(actual output: ${ACTUAL})")
endif()
