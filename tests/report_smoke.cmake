# Spatial-observability smoke: a lossy chaos run with every JSONL sink
# armed must render via `decor report html` into byte-identical HTML —
# twice from the same artifacts AND from a fresh same-seed run — and
# `decor bench diff` must exit 0 on identical documents, 3 beyond
# --fail-over, and 1 on garbage input. Empty and damaged artifacts are
# counted warnings or malformed lines, never failed renders.
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DBENCH=<BENCH_fig10.json>
#         -DGOLDEN=<tests/golden> -DOUT=<scratch dir> -P report_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED BENCH OR NOT DEFINED GOLDEN
   OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "report_smoke.cmake needs -DBIN=, -DBENCH=, -DGOLDEN= and -DOUT=")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

function(chaos_run dir)
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
            --k=1 --loss=0.3 --burst=3 --seed=7
            --trace-jsonl=${dir}/trace.jsonl
            --timeline=1 --timeline-jsonl=${dir}/timeline.jsonl
            --field=2 --field-jsonl=${dir}/field.jsonl
            --audit-jsonl=${dir}/audit.jsonl
            --flight-dir=${dir}/flight
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "chaos sim into ${dir} failed (rc=${rc})")
  endif()
  foreach(artifact trace.jsonl timeline.jsonl field.jsonl audit.jsonl)
    if(NOT EXISTS ${dir}/${artifact})
      message(FATAL_ERROR "sim did not write ${dir}/${artifact}")
    endif()
  endforeach()
endfunction()

chaos_run(${OUT}/run1)
chaos_run(${OUT}/run2)

# Render run1 twice: rendering must be a pure function of the artifacts.
foreach(pass a b)
  execute_process(
    COMMAND ${BIN} report html ${OUT}/run1 --out=${OUT}/run1-${pass}.html
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "decor report html pass ${pass} failed (rc=${rc})")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/run1-a.html
          ${OUT}/run1-b.html
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "two renders of the same run directory differ")
endif()

# A fresh same-seed run must produce the same bytes end to end: sim
# determinism plus renderer determinism.
execute_process(
  COMMAND ${BIN} report html ${OUT}/run2 --out=${OUT}/run2-a.html
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor report html on run2 failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/run1-a.html
          ${OUT}/run2-a.html
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "same-seed runs rendered different reports")
endif()

# The report must actually carry the sections, not just be stable bytes.
file(READ ${OUT}/run1-a.html html)
foreach(needle "<svg" "Field snapshots" "Placement audit" "Message stats"
        "Timeline")
  string(FIND "${html}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "report is missing '${needle}'")
  endif()
endforeach()

# --- multi-run aggregate -------------------------------------------------

# Two run directories in one invocation must produce a byte-deterministic
# aggregate report with the seed-vs-seed summary and the overlaid
# convergence chart.
foreach(pass a b)
  execute_process(
    COMMAND ${BIN} report html ${OUT}/run1 ${OUT}/run2
            --out=${OUT}/agg-${pass}.html
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "aggregate report pass ${pass} failed (rc=${rc})")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/agg-a.html
          ${OUT}/agg-b.html
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "two aggregate renders of the same runs differ")
endif()
file(READ ${OUT}/agg-a.html agg)
foreach(needle "aggregate report (2 runs)" "Convergence overlay"
        "artifact warnings" "id=\"run-0\"" "id=\"run-1\"")
  string(FIND "${agg}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "aggregate report is missing '${needle}'")
  endif()
endforeach()

# An empty artifact must degrade to a counted warning in the report
# header, never a skipped render.
file(MAKE_DIRECTORY ${OUT}/run3)
file(WRITE ${OUT}/run3/timeline.jsonl "")
execute_process(
  COMMAND ${BIN} report html ${OUT}/run3 --out=${OUT}/run3.html
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "report on an empty artifact must still render "
                      "(rc=${rc})")
endif()
file(READ ${OUT}/run3.html warn_html)
string(FIND "${warn_html}" "artifact warnings: 1" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "empty artifact did not surface as a counted warning")
endif()

# A damaged field row is a counted malformed line, never a drawn cell:
# a first raster cell of -1 in the golden field file leaves the other
# snapshots on their own colour scale, whose deficit-1 cells stay full
# red. A damaged field header (no columns) is a warning, draws no
# heatmap, and is the cause explain names.
file(READ ${GOLDEN}/explain_run/field.jsonl field)
string(FIND "${field}" "\"raster\":[0," at)
if(at EQUAL -1)
  message(FATAL_ERROR "golden field file no longer opens on a 0 cell")
endif()
math(EXPR at "${at} + 10")
string(SUBSTRING "${field}" 0 ${at} head)
math(EXPR at "${at} + 1")
string(SUBSTRING "${field}" ${at} -1 tail)
string(REPLACE "\"cols\":8," "\"cols\":0," bad_header "${field}")
file(MAKE_DIRECTORY ${OUT}/run4 ${OUT}/run5)
file(WRITE ${OUT}/run4/field.jsonl "${head}-1${tail}")
file(WRITE ${OUT}/run5/field.jsonl "${bad_header}")
foreach(run run4 run5)
  execute_process(
    COMMAND ${BIN} report html ${OUT}/${run} --out=${OUT}/${run}.html
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "report on a damaged field file must still render "
                        "(${run}, rc=${rc})")
  endif()
endforeach()
file(READ ${OUT}/run4.html bad_row_html)
string(REGEX MATCH "<td>field</td><td>[0-9]+</td><td>1</td>" m
       "${bad_row_html}")
if(m STREQUAL "")
  message(FATAL_ERROR "the damaged field row is not one malformed line")
endif()
string(FIND "${bad_row_html}" "rgb(255,0,0)" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "the damaged field row flattened the colour scale")
endif()
file(READ ${OUT}/run5.html bad_header_html)
foreach(needle "artifact warnings: 1" "rejected decor.field.v1 header"
        "<li>decor.field.v1 header rejected")
  string(FIND "${bad_header_html}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "the damaged field header is missing '${needle}'")
  endif()
endforeach()
foreach(needle "Field snapshots" "no decor.field.v1 artifact")
  string(FIND "${bad_header_html}" "${needle}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "a rejected field header still shows '${needle}'")
  endif()
endforeach()

# Replaying the damaged field row through the dashboard counts it on the
# status line, as a live feed of the same row would.
execute_process(
  COMMAND ${BIN} watch ${OUT}/run4 --cols=96 --rows=14
          --out=${OUT}/run4-frames.txt
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor watch on a damaged field file failed (rc=${rc})")
endif()
file(READ ${OUT}/run4-frames.txt bad_row_frames)
string(FIND "${bad_row_frames}" "!1 bad" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "decor watch replay dropped the damaged row's count")
endif()

# An unreadable directory is an error, not an empty report.
execute_process(
  COMMAND ${BIN} report html ${OUT}/no-such-dir
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "report html on a missing directory must fail")
endif()

# --- bench diff gate -----------------------------------------------------

# Identical documents: exit 0 even with a tight threshold.
execute_process(
  COMMAND ${BIN} bench diff ${BENCH} ${BENCH} --fail-over=0
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench diff of identical docs must exit 0 (rc=${rc})")
endif()

# Inject a >10% regression into the first mean and expect exit 3.
file(READ ${BENCH} bench_doc)
string(REGEX REPLACE "\"mean\":[0-9.eE+-]+" "\"mean\":999999" regressed
       "${bench_doc}")
file(WRITE ${OUT}/regressed.json "${regressed}")
execute_process(
  COMMAND ${BIN} bench diff ${BENCH} ${OUT}/regressed.json --fail-over=10
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "bench diff must exit 3 on a >10% regression "
                      "(rc=${rc})")
endif()
string(FIND "${out}" "FAIL" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "bench diff gate did not announce the failure")
endif()

# Without --fail-over the same comparison is report-only: exit 0.
execute_process(
  COMMAND ${BIN} bench diff ${BENCH} ${OUT}/regressed.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench diff without --fail-over must exit 0 "
                      "(rc=${rc})")
endif()

# Garbage input: exit 1.
file(WRITE ${OUT}/garbage.json "not json at all {")
execute_process(
  COMMAND ${BIN} bench diff ${BENCH} ${OUT}/garbage.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "bench diff on garbage must exit 1 (rc=${rc})")
endif()
