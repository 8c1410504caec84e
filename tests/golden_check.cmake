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
# change, re-record the goldens (EXPERIMENTS.md, "Goldens"). A mismatch
# names the first line that differs and prints it from both files.
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

# Sets <out_var> to "line N", then line N of each of two differing files.
# The longest common prefix is found by bisection on its length, so it
# takes O(size log size) however the lines fall.
function(first_difference golden fresh out_var)
  file(READ "${golden}" a)
  file(READ "${fresh}" b)
  string(LENGTH "${a}" la)
  string(LENGTH "${b}" lb)
  set(lo 0)
  set(hi ${la})
  if(lb LESS la)
    set(hi ${lb})
  endif()
  while(lo LESS hi)
    math(EXPR mid "(${lo} + ${hi} + 1) / 2")
    string(SUBSTRING "${a}" 0 ${mid} pa)
    string(SUBSTRING "${b}" 0 ${mid} pb)
    if(pa STREQUAL pb)
      set(lo ${mid})
    else()
      math(EXPR hi "${mid} - 1")
    endif()
  endwhile()
  string(SUBSTRING "${a}" 0 ${lo} prefix)
  string(REGEX MATCHALL "\n" newlines "${prefix}")
  list(LENGTH newlines line)
  math(EXPR line "${line} + 1")
  string(FIND "${prefix}" "\n" start REVERSE)
  math(EXPR start "${start} + 1")
  set(text "line ${line}")
  foreach(side golden fresh)
    file(READ "${${side}}" rest OFFSET ${start})
    string(FIND "${rest}" "\n" end)
    string(SUBSTRING "${rest}" 0 ${end} rest)
    string(APPEND text "\n  ${side}: ${rest}")
  endforeach()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

string(REPLACE "," ";" files "${FILES}")
foreach(file IN LISTS files)
  set(fresh "${OUT}/${file}")
  set(golden "${GOLDENS}/${file}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${golden}" "${fresh}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    first_difference("${golden}" "${fresh}" where)
    message(FATAL_ERROR
            "${fresh} differs from the committed golden ${golden}, first at "
            "${where}\n"
            "If the model change is intended, re-record goldens/ and explain "
            "the diff in EXPERIMENTS.md.")
  endif()
endforeach()
