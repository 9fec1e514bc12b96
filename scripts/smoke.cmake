# Runs one binary and checks how it ends: with exit code EXPECT_RC
# (default 0) and output matching the regex EXPECT. A signal is never
# an exit code, so a crash fails every case. Usage:
#
#   cmake -DCMD=<binary> [-DARGS=<space-separated args>]
#         -DEXPECT=<regex>
#         [-DEXPECT_RC=<code>] -P smoke.cmake
if(NOT DEFINED EXPECT_RC)
    set(EXPECT_RC 0)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
    message(FATAL_ERROR "${CMD} ${ARGS}: exit '${rc}', want ${EXPECT_RC}\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "${CMD} ${ARGS}: no match for '${EXPECT}'\n${out}")
endif()
