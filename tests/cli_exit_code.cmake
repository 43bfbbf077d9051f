# One command-line check on a tool binary, run by CTest:
#
#   cmake -DCMD=<binary> -DARGS=<arg|arg|...> -DEXPECT=<status> \
#         -P cli_exit_code.cmake
#
# Fails unless the tool exits with EXPECT. For status 2 (a usage error)
# stderr must also be a one-line message followed by the usage text.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(EXPECT STREQUAL "2" AND NOT err MATCHES "^[^\n]+\nusage: ")
  message(FATAL_ERROR "usage error without a one-line message plus the "
                      "usage text on stderr:\n${err}")
endif()
if(ARGS STREQUAL "--help" AND NOT out MATCHES "^usage: ")
  message(FATAL_ERROR "--help did not print the usage text:\n${out}")
endif()
