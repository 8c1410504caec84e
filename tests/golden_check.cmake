# Re-run one paper campaign binary and byte-compare the JSON of each of
# its campaigns with the committed golden. Run as a ctest (see
# tests/CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DCAMPAIGNS=<name>[,<name>...] -DGOLDENS=<dir>
#         -DOUT=<dir> -P golden_check.cmake
#
# The campaign runs at the default seed on 4 worker threads; results are
# thread-count independent, so any difference is a model change. After an
# intended change, re-record the goldens (EXPERIMENTS.md, "Goldens").
foreach(var BENCH CAMPAIGNS GOLDENS OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check.cmake: -D${var}=... is required")
  endif()
endforeach()

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

string(REPLACE "," ";" campaigns "${CAMPAIGNS}")
foreach(campaign IN LISTS campaigns)
  set(fresh "${OUT}/${campaign}.json")
  set(golden "${GOLDENS}/${campaign}.json")
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
