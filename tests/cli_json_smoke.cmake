# Smoke check for decor_cli --json: the run must succeed and produce a
# non-empty decor.cli.v1 document at the requested path, and --json=-
# must put the document on stdout's last line, not in a file named "-".
# A bare --json must write the default path, decor-<cmd>.json for the
# CLI and <figure>.json for a bench binary, not a file named "true".
#
# Invoked by ctest as:
#   cmake -DBIN=<decor_cli> -DBENCH=<fig10_message_overhead>
#         -DOUT=<json path> -P cli_json_smoke.cmake
if(NOT DEFINED BIN OR NOT DEFINED BENCH OR NOT DEFINED OUT)
  message(FATAL_ERROR
          "cli_json_smoke.cmake needs -DBIN= -DBENCH= and -DOUT=")
endif()

file(REMOVE ${OUT})
execute_process(
  COMMAND ${BIN} deploy --scheme=grid --side=30 --points=300 --initial=20
          --k=1 --json=${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli deploy --json failed (rc=${rc})")
endif()

if(NOT EXISTS ${OUT})
  message(FATAL_ERROR "decor_cli did not write ${OUT}")
endif()
file(READ ${OUT} doc)
foreach(needle "\"schema\":\"decor.cli.v1\"" "\"report\"" "\"metrics\"")
  string(FIND "${doc}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${OUT} is missing ${needle}")
  endif()
endforeach()

# --json=- is stdout: run in an empty directory so a stray file shows.
get_filename_component(stdout_dir ${OUT} DIRECTORY)
set(stdout_dir ${stdout_dir}/cli_json_stdout)
file(REMOVE_RECURSE ${stdout_dir})
file(MAKE_DIRECTORY ${stdout_dir})
execute_process(
  COMMAND ${BIN} deploy --scheme=grid --side=30 --points=300 --initial=20
          --k=1 --json=-
  WORKING_DIRECTORY ${stdout_dir}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "decor_cli deploy --json=- failed (rc=${rc})")
endif()
if(EXISTS ${stdout_dir}/-)
  message(FATAL_ERROR "decor_cli --json=- wrote a file named '-'")
endif()
string(STRIP "${stdout}" stdout)
string(FIND "${stdout}" "\n" nl REVERSE)
math(EXPR nl "${nl} + 1")
string(SUBSTRING "${stdout}" ${nl} -1 last)
string(JSON schema ERROR_VARIABLE err GET "${last}" schema)
if(NOT schema STREQUAL "decor.cli.v1")
  message(FATAL_ERROR
          "stdout's last line is not a decor.cli.v1 report (${err}): ${last}")
endif()

# Bare --json, in an empty directory so a stray file shows.
get_filename_component(bare_dir ${OUT} DIRECTORY)
set(bare_dir ${bare_dir}/cli_json_bare)
file(REMOVE_RECURSE ${bare_dir})
file(MAKE_DIRECTORY ${bare_dir})
foreach(cmd "${BIN};discrepancy;--n=64;--json" "${BENCH};--trials=1;--json")
  execute_process(
    COMMAND ${cmd}
    WORKING_DIRECTORY ${bare_dir}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${cmd} failed (rc=${rc})")
  endif()
endforeach()
foreach(file decor-discrepancy.json fig10.json)
  if(NOT EXISTS ${bare_dir}/${file})
    message(FATAL_ERROR "a bare --json did not write ${file}")
  endif()
endforeach()
if(EXISTS ${bare_dir}/true)
  message(FATAL_ERROR "a bare --json wrote a file named 'true'")
endif()
