# Runs `simdx_cli --algo bfs --source SOURCE` on a 4-vertex path written to
# GRAPH and fails unless the CLI exits 2 with EXPECT (a regex) on stderr.
#
#   cmake -DCLI=<simdx_cli> -DGRAPH=<path> -DSOURCE=<value> -DEXPECT=<regex>
#         -P cli_rejects.cmake
file(WRITE "${GRAPH}" "0 1\n1 2\n2 3\n")
execute_process(
  COMMAND "${CLI}" --algo bfs --file "${GRAPH}" --source "${SOURCE}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "--source ${SOURCE}: exit '${code}', expected 2\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "--source ${SOURCE}: stderr does not match "
                      "'${EXPECT}':\n${err}")
endif()
