# Observability goldens: the outputs of every trace reader and telemetry
# sink must match committed files byte for byte.
#   1. On the committed run directory tests/golden/explain_run/:
#      the `decor explain` document, the `decor report html` page and the
#      `decor trace report --top=10` stdout.
#   2. On the harness_golden_smoke Voronoi run, with every JSONL sink plus
#      --trace-perfetto, --telemetry and --otlp armed: the Perfetto
#      export, the DTLM stream, the OTLP document, and `decor trace
#      report` on the trace JSONL and on the Perfetto file.
# A trace report's first line names its input path, so it is dropped
# before the comparison.
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DGOLDEN=<tests/golden> -DOUT=<scratch dir>
#         -P observability_golden_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "observability_golden_smoke.cmake needs -DBIN= -DGOLDEN= and -DOUT=")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(expect ${GOLDEN}/observability)

function(check_same file)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/${file} ${expect}/${file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUT}/${file} differs from ${expect}/${file}")
  endif()
endfunction()

# run_cli(<output file> <cli args...>) runs `decor <cli args>`; the
# output file receives its stdout minus the first line.
function(run_cli file)
  execute_process(
    COMMAND ${BIN} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "decor ${ARGN} failed (rc=${rc})")
  endif()
  string(FIND "${stdout}" "\n" eol)
  math(EXPR eol "${eol} + 1")
  string(SUBSTRING "${stdout}" ${eol} -1 rest)
  file(WRITE ${OUT}/${file} "${rest}")
endfunction()

# --- readers on the committed run directory -------------------------------
set(run ${GOLDEN}/explain_run)
run_cli(explain_run.explain.txt explain ${run}
        --out=${OUT}/explain_run.explain.json)
run_cli(explain_run.report.txt report html ${run}
        --out=${OUT}/explain_run.report.html)
run_cli(explain_run.trace_report.txt trace report ${run} --top=10)
check_same(explain_run.explain.json)
check_same(explain_run.report.html)
check_same(explain_run.trace_report.txt)

# --- sinks and readers on the Voronoi run ---------------------------------
set(dir ${OUT}/voronoi)
file(MAKE_DIRECTORY ${dir})
execute_process(
  COMMAND ${BIN} sim --scheme=voronoi --initial=0 --side=20 --points=200
          --k=1 --seed=11 --loss=0.3 --trace --timeline=0.5 --field=1
          --invariants
          --trace-jsonl=${dir}/trace.jsonl
          --timeline-jsonl=${dir}/timeline.jsonl
          --field-jsonl=${dir}/field.jsonl
          --audit-jsonl=${dir}/audit.jsonl
          --metrics-jsonl=${dir}/metrics.jsonl
          --trace-perfetto=${OUT}/voronoi.perfetto.json
          --telemetry=${OUT}/voronoi.dtlm
          --otlp=${OUT}/voronoi.otlp.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor sim (voronoi) failed (rc=${rc})")
endif()
check_same(voronoi.perfetto.json)
check_same(voronoi.dtlm)
check_same(voronoi.otlp.json)
run_cli(voronoi.trace_report.jsonl.txt trace report ${dir}/trace.jsonl)
run_cli(voronoi.trace_report.perfetto.txt trace report
        ${OUT}/voronoi.perfetto.json)
check_same(voronoi.trace_report.jsonl.txt)
check_same(voronoi.trace_report.perfetto.txt)
