# Re-run one bench binary and byte-compare each file it writes with the
# committed golden. Run as a ctest (see tests/CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DFILES=<path>[,<path>...] -DGOLDENS=<dir>
#         -DOUT=<dir> -P golden_check.cmake
#
# Each path is relative to both GOLDENS and OUT (a paper campaign's
# "<name>.json", the observed sweep's "observed/points.txt"). The bench
# runs at the default seed on 4 worker threads; its output is thread-count
# independent, so any difference is a model change. After an intended
# change, re-record the goldens (EXPERIMENTS.md, "Goldens").
foreach(var BENCH FILES GOLDENS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check.cmake: -D${var}=... is required")
  endif()
endforeach()

if(FILES STREQUAL "")
  message(FATAL_ERROR "golden_check.cmake: no files to compare")
endif()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env --unset=NFVSB_SEED NFVSB_THREADS=4
          "NFVSB_RESULTS_DIR=${OUT}" "${BENCH}"
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

string(REPLACE "," ";" files "${FILES}")
foreach(file IN LISTS files)
  set(fresh "${OUT}/${file}")
  set(golden "${GOLDENS}/${file}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${fresh}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${fresh} differs from the committed golden ${golden}.\n"
            "If the model change is intended, re-record goldens/ and explain "
            "the diff in EXPERIMENTS.md.")
  endif()
endforeach()
