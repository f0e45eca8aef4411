# Observability smoke: a lossy sim run with --trace-perfetto must emit a
# Perfetto-loadable trace_event document, `decor trace report` must parse
# both the Perfetto document and the raw trace JSONL and report the same
# exchanges from either (every line but the input path and the record
# count, which counts Perfetto's span-end and instant events too), with
# the ARQ's own retransmission count, also on a wrapped trace ring, and
# an unopenable --trace-jsonl sink must fail the run with a nonzero exit
# (not a silent empty artifact). A bare `decor trace` prints the same
# usage as `trace report`, run directory included.
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DOUT=<scratch dir> -P trace_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT)
  message(FATAL_ERROR "trace_smoke.cmake needs -DBIN= and -DOUT=")
endif()

set(perfetto ${OUT}/trace_smoke.perfetto.json)
set(jsonl ${OUT}/trace_smoke.trace.jsonl)
set(timeline ${OUT}/trace_smoke.timeline.jsonl)
file(MAKE_DIRECTORY ${OUT})
file(REMOVE ${perfetto} ${jsonl} ${timeline})

execute_process(
  COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
          --k=1 --loss=0.3 --seed=7 --trace-perfetto=${perfetto}
          --trace-jsonl=${jsonl} --timeline=1 --timeline-jsonl=${timeline}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE sim_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli sim --trace-perfetto failed (rc=${rc})")
endif()

foreach(artifact ${perfetto} ${jsonl} ${timeline})
  if(NOT EXISTS ${artifact})
    message(FATAL_ERROR "decor_cli did not write ${artifact}")
  endif()
endforeach()

# The Perfetto document must be non-empty trace_event JSON with real spans.
file(READ ${perfetto} doc)
foreach(needle "\"traceEvents\"" "\"ph\":\"b\"" "\"ph\":\"e\""
        "process_name" "\"id2\"")
  string(FIND "${doc}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${perfetto} is missing ${needle}")
  endif()
endforeach()

# The JSONL stream must carry seq/trace fields on every record line.
file(READ ${jsonl} stream)
string(FIND "${stream}" "\"seq\":" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${jsonl} has no seq-stamped records")
endif()

# `trace report` must reconstruct the run from either artifact alone, and
# both must report the same exchanges. compare_reports(<perfetto> <jsonl>)
# checks that and leaves the JSONL report in `jsonl_report`.
function(compare_reports perfetto jsonl)
  foreach(dump ${perfetto} ${jsonl})
    execute_process(
      COMMAND ${BIN} trace report ${dump}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE report)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "decor_cli trace report ${dump} failed (rc=${rc})")
    endif()
    foreach(needle "records:" "retransmits:")
      string(FIND "${report}" "${needle}" pos)
      if(pos EQUAL -1)
        message(FATAL_ERROR "trace report on ${dump} is missing '${needle}'")
      endif()
    endforeach()
    # Drop the path line and the record count before comparing.
    string(REGEX REPLACE "^trace report: [^\n]*\n" "" report "${report}")
    string(REGEX REPLACE "records: [0-9]+," "records:," report "${report}")
    if(dump STREQUAL perfetto)
      set(perfetto_report "${report}")
    else()
      set(jsonl_report "${report}")
    endif()
  endforeach()
  if(NOT perfetto_report STREQUAL jsonl_report)
    message(FATAL_ERROR "trace report disagrees between ${perfetto} and "
                        "${jsonl}:\n${perfetto_report}\n---\n${jsonl_report}")
  endif()
  set(jsonl_report "${jsonl_report}" PARENT_SCOPE)
endfunction()
compare_reports(${perfetto} ${jsonl})

# Both count exactly the ARQ's retransmissions.
string(REGEX MATCH "arq retx=([0-9]+)" _ "${sim_out}")
set(arq_retx ${CMAKE_MATCH_1})
string(REGEX MATCH "retransmits: ([0-9]+)" _ "${jsonl_report}")
if(arq_retx STREQUAL "" OR NOT CMAKE_MATCH_1 STREQUAL arq_retx)
  message(FATAL_ERROR "trace report counts ${CMAKE_MATCH_1} retransmits, "
                      "decor sim printed arq retx=${arq_retx}")
endif()

# The same agreement on a bounded ring that wrapped, so exchanges lost
# their sends (and some their first tx to an ack): the run stops short of
# coverage, and the flight bundle's trace.jsonl holds the same ring as the
# Perfetto export.
set(ring ${OUT}/ring)
file(REMOVE_RECURSE ${ring})
execute_process(
  COMMAND ${BIN} sim --scheme=voronoi --side=50 --points=600 --initial=5
          --k=3 --seed=3 --run-time=3 --trace-cap=500
          --flight-dir=${ring}/flight --trace-perfetto=${ring}/perfetto.json
  OUTPUT_QUIET ERROR_QUIET)
if(NOT EXISTS ${ring}/flight/trace.jsonl)
  message(FATAL_ERROR "the short ring run wrote no flight bundle")
endif()
compare_reports(${ring}/perfetto.json ${ring}/flight/trace.jsonl)

# A truncated tail (crash mid-write) must be skipped and counted, never
# fatal: append a garbled line and expect a clean report that says so.
set(damaged ${OUT}/trace_smoke.damaged.jsonl)
file(READ ${jsonl} stream)
file(WRITE ${damaged} "${stream}{\"seq\":999999,\"t\":1.5,\"kind\"")
execute_process(
  COMMAND ${BIN} trace report ${damaged}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE report)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace report must survive a malformed line "
                      "(rc=${rc})")
endif()
string(FIND "${report}" "malformed lines skipped: 1" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "trace report did not count the malformed line")
endif()

# An unopenable sink is an error, not a silently traceless run.
execute_process(
  COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
          --k=1 --trace-jsonl=${OUT}/no-such-dir/x.jsonl
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "sim with unopenable --trace-jsonl must exit nonzero")
endif()

# Without `report`, `decor trace` names every input `trace report` takes.
execute_process(
  COMMAND ${BIN} trace
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE usage)
string(FIND "${usage}" "run-dir" pos)
if(NOT rc EQUAL 1 OR pos EQUAL -1)
  message(FATAL_ERROR "bare `decor trace` must exit 1 and name run-dir in "
                      "its usage (rc=${rc}): ${usage}")
endif()
