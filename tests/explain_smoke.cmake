# Causal analysis smoke: `decor explain` must reconstruct a lossy chaos
# run end-to-end from the CLI — byte-identical decor.explain.v1 output
# across two invocations, the critical-path facts present in the human
# summary — and `decor explain diff` against the loss-free twin of the
# same seed must attribute the convergence delta to the propagation
# phase (the --json report carries the verdict machine-readably).
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DOUT=<scratch dir> -P explain_smoke.cmake
cmake_policy(SET CMP0054 NEW)  # "lossy" must not re-deref into ${lossy}
if(NOT DEFINED BIN OR NOT DEFINED OUT)
  message(FATAL_ERROR "explain_smoke.cmake needs -DBIN= and -DOUT=")
endif()

set(clean ${OUT}/clean)
set(lossy ${OUT}/lossy)
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${clean} ${lossy})

foreach(run IN ITEMS clean lossy)
  if(run STREQUAL "lossy")
    set(loss 0.3)
  else()
    set(loss 0)
  endif()
  execute_process(
    COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
            --k=1 --seed=11 --loss=${loss} --trace
            --trace-jsonl=${OUT}/${run}/trace.jsonl
            --timeline=0.5 --timeline-jsonl=${OUT}/${run}/timeline.jsonl
            --field=1 --field-jsonl=${OUT}/${run}/field.jsonl
            --audit-jsonl=${OUT}/${run}/audit.jsonl
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "decor_cli sim (${run}) failed (rc=${rc})")
  endif()
endforeach()

# Two invocations on the same run dir must write identical bytes.
execute_process(
  COMMAND ${BIN} explain ${lossy} --out=${OUT}/explain_a.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE summary)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli explain failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${BIN} explain ${lossy} --out=${OUT}/explain_b.json
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli explain (second pass) failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}/explain_a.json ${OUT}/explain_b.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain output is not byte-deterministic")
endif()

# The human summary must carry the critical-path facts.
foreach(needle "converged at t=" "phases: detection" "closing placement:"
        "worst nodes:" "worst links:")
  string(FIND "${summary}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "explain summary is missing '${needle}'")
  endif()
endforeach()

# The written document must be a decor.explain.v1 with all four phases.
file(READ ${OUT}/explain_a.json doc)
foreach(needle "\"schema\":\"decor.explain.v1\"" "\"detection\":"
        "\"decision\":" "\"propagation\":" "\"critical_path\"" "\"health\"")
  string(FIND "${doc}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "explain document is missing ${needle}")
  endif()
endforeach()

# diff must attribute the 30%-loss regression to the propagation phase —
# accepting either run dirs or saved explain documents as inputs.
execute_process(
  COMMAND ${BIN} explain diff ${clean} ${OUT}/explain_a.json
          --json=${OUT}/diff.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE diff_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli explain diff failed (rc=${rc})")
endif()
string(FIND "${diff_out}" "dominant phase: propagation" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "explain diff did not attribute the loss regression "
                      "to the propagation phase:\n${diff_out}")
endif()
file(READ ${OUT}/diff.json diff_doc)
string(FIND "${diff_doc}" "\"dominant_phase\":\"propagation\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "diff --json report lacks the propagation verdict")
endif()

# A bare --out takes the default, <run-dir>/explain.json, not ./true.
execute_process(
  COMMAND ${BIN} explain ${lossy} --out
  WORKING_DIRECTORY ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli explain with a bare --out failed (rc=${rc})")
endif()
if(EXISTS ${OUT}/true)
  message(FATAL_ERROR "a bare explain --out wrote a file named 'true'")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT}/explain_a.json ${lossy}/explain.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "a bare --out did not write ${lossy}/explain.json")
endif()

# A missing run dir is an error, not an empty document.
execute_process(
  COMMAND ${BIN} explain ${OUT}/no-such-run
  RESULT_VARIABLE rc
  OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "explain on a missing run dir must exit nonzero")
endif()
