# A run writes files and stdout only. Each network or child-process
# target must be refused before anything is built: exit 1, name the file
# or pipe form on stderr, and leave the working directory empty (no file
# named after the target, no partial artifact). A bare artifact flag
# with no default path (--otlp, --trace-jsonl, --timeline-jsonl) names
# no file, so it is refused the same way instead of writing ./true.
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DOUT=<scratch dir> -P egress_rejected.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT)
  message(FATAL_ERROR "egress_rejected.cmake needs -DBIN= and -DOUT=")
endif()

set(sim sim --scheme=grid --side=20 --points=200 --initial=8 --k=1
    --seed=7)

# check(<case> <stderr needle> <decor args...>)
function(check name needle)
  set(dir ${OUT}/${name})
  file(REMOVE_RECURSE ${dir})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${BIN} ${ARGN}
    WORKING_DIRECTORY ${dir}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${name}: decor ${args} exited ${rc}, not 1")
  endif()
  string(FIND "${err}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${name}: stderr does not name '${needle}':\n${err}")
  endif()
  file(GLOB left LIST_DIRECTORIES true ${dir}/* ${dir}/.*)
  if(left)
    message(FATAL_ERROR "${name}: left files behind: ${left}")
  endif()
endfunction()

check(tcp_stream "--telemetry=- | decor watch -"
      ${sim} --telemetry=tcp:127.0.0.1:9)
check(otlp_http "--otlp=FILE"
      ${sim} --trace --otlp=http://127.0.0.1:9/v1/traces)
check(watch_spawn "--telemetry=- | decor watch -"
      watch --frames=1 -- ${sim})
check(bare_otlp "--otlp=PATH" ${sim} --otlp)
check(bare_trace_jsonl "--trace-jsonl=PATH" ${sim} --trace-jsonl)
check(bare_timeline_jsonl "--timeline-jsonl=PATH"
      ${sim} --timeline=1 --timeline-jsonl)
