# Protocol-harness artifact goldens: three `decor sim` runs that between
# them cover the harness's shared machinery (sink wiring, timeline,
# field tick, audit, metrics snapshots, invariant monitor, convergence
# poll) and its scheme-specific parts (grid leader kill and leaders
# column, Voronoi stall watchdog). Every artifact each run writes must
# match its committed golden byte for byte:
#   1. the lossy grid run behind tests/golden/explain_run/
#   2. that run with a leader kill, invariants and metrics snapshots
#      (tests/golden/harness_grid_chaos/)
#   3. a Voronoi run from an empty field with all five sinks and
#      invariants; the watchdog seeds once (tests/golden/harness_voronoi/)
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DGOLDEN=<tests/golden> -DOUT=<scratch dir>
#         -P harness_golden_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED GOLDEN OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "harness_golden_smoke.cmake needs -DBIN= -DGOLDEN= and -DOUT=")
endif()

file(REMOVE_RECURSE ${OUT})

set(field_args --side=20 --points=200 --k=1 --seed=11 --loss=0.3 --trace)

# run_and_compare(<name> <golden subdir> <artifact...> ARGS <sim args...>)
# runs `decor sim <sim args>` with one --<artifact>-jsonl sink per
# artifact into ${OUT}/<name>, then compares each file with the golden.
function(run_and_compare name golden)
  cmake_parse_arguments(RUN "" "" "ARTIFACTS;ARGS" ${ARGN})
  set(dir ${OUT}/${name})
  file(MAKE_DIRECTORY ${dir})
  set(sinks)
  foreach(artifact IN LISTS RUN_ARTIFACTS)
    list(APPEND sinks --${artifact}-jsonl=${dir}/${artifact}.jsonl)
  endforeach()
  execute_process(
    COMMAND ${BIN} sim ${RUN_ARGS} ${sinks}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "decor sim (${name}) failed (rc=${rc})")
  endif()
  foreach(artifact IN LISTS RUN_ARTIFACTS)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${dir}/${artifact}.jsonl ${GOLDEN}/${golden}/${artifact}.jsonl
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name}: ${artifact}.jsonl differs from "
                          "${GOLDEN}/${golden}/${artifact}.jsonl")
    endif()
  endforeach()
endfunction()

run_and_compare(grid explain_run
  ARTIFACTS trace timeline field audit
  ARGS --scheme=grid --initial=8 ${field_args} --timeline=0.5 --field=1)

run_and_compare(grid_chaos harness_grid_chaos
  ARTIFACTS timeline field audit metrics
  ARGS --scheme=grid --initial=8 ${field_args} --timeline=0.5 --field=1
       --kill-leader-at=3 --invariants)

run_and_compare(voronoi harness_voronoi
  ARTIFACTS trace timeline field audit metrics
  ARGS --scheme=voronoi --initial=0 ${field_args} --timeline=0.5 --field=1
       --invariants)
