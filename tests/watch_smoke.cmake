# Streaming-telemetry smoke: the headless dashboard must replay a
# completed run directory into byte-identical frame dumps, and the live
# path (`decor sim ... --telemetry=- | decor watch -`) must consume the
# DTLM stream through a pipe (CI has no tty) and paint the same frames
# as following the same run's --telemetry=FILE capture.
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DOUT=<scratch dir> -P watch_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED OUT)
  message(FATAL_ERROR "watch_smoke.cmake needs -DBIN= and -DOUT=")
endif()

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT}/run)

execute_process(
  COMMAND ${BIN} sim --scheme=grid --side=20 --points=200 --initial=8
          --k=1 --seed=7
          --timeline=1 --timeline-jsonl=${OUT}/run/timeline.jsonl
          --field=2 --field-jsonl=${OUT}/run/field.jsonl
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sim for the replay dir failed (rc=${rc})")
endif()

# Replay twice: frames are a pure function of the artifacts.
foreach(pass a b)
  execute_process(
    COMMAND ${BIN} watch ${OUT}/run --frames=4 --cols=60 --rows=16
            --out=${OUT}/frames-${pass}.txt
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "decor watch replay pass ${pass} failed (rc=${rc})")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/frames-a.txt
          ${OUT}/frames-b.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "two replays of the same run directory differ")
endif()
file(READ ${OUT}/frames-a.txt frames)
foreach(needle "decor watch" "covered=" "deficit")
  string(FIND "${frames}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "replay frames are missing '${needle}'")
  endif()
endforeach()

# Live mode: the sim's stdout (DTLM frames, then its summary lines) is
# piped into `decor watch -`. No --frames: the sim runs to its end, so
# both sides of the pipe must exit 0.
set(sim_args sim --scheme=grid --side=20 --points=200 --initial=8 --k=1
    --seed=7 --timeline=0.5 --field=1)
set(watch_args --cols=60 --rows=16)
execute_process(
  COMMAND ${BIN} ${sim_args} --telemetry=-
  COMMAND ${BIN} watch - ${watch_args} --out=${OUT}/live.txt
  RESULTS_VARIABLE rcs
  OUTPUT_QUIET)
if(NOT rcs STREQUAL "0;0")
  message(FATAL_ERROR "sim | watch - failed (exit codes ${rcs})")
endif()
file(READ ${OUT}/live.txt live)
string(FIND "${live}" "decor watch" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "live watch produced no dashboard frames")
endif()
string(FIND "${live}" "covered=" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "live watch frames carry no timeline data")
endif()

# The stdout stream carries the same frames as the file target.
execute_process(
  COMMAND ${BIN} ${sim_args} --telemetry=${OUT}/capture.dtlm
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sim --telemetry=FILE failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${BIN} watch ${OUT}/capture.dtlm ${watch_args}
          --out=${OUT}/capture.txt
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor watch of the capture failed (rc=${rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/live.txt
          ${OUT}/capture.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "frames piped from stdout differ from the capture's")
endif()
