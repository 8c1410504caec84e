# Self-test of golden_check.cmake, run as a ctest (see tests/CMakeLists.txt):
#
#   cmake -DCHECK=<path to golden_check.cmake> -DWORK=<dir>
#         -P golden_check_selftest.cmake
#
# A stand-in bench copies a prepared file into its results dir. The check
# must pass when that file equals the golden, and fail when it does not,
# naming the first differing line and printing it from both files. The
# lines before the difference hold a blank line and a ';', which a
# line count taken with file(STRINGS) would get wrong.
foreach(var CHECK WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check_selftest.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(WRITE "${WORK}/goldens/out.txt" "a\n\nb;c\nd\ne\n")
file(WRITE "${WORK}/stage/bench"
     "#!/bin/sh\ncp \"${WORK}/fresh.txt\" \"$NFVSB_RESULTS_DIR/out.txt\"\n")
file(COPY "${WORK}/stage/bench" DESTINATION "${WORK}"
     FILE_PERMISSIONS OWNER_READ OWNER_WRITE OWNER_EXECUTE)

# Runs the check against a bench that writes `fresh`; sets <rc_var> to its
# exit code and <out_var> to what it printed.
function(check fresh rc_var out_var)
  file(WRITE "${WORK}/fresh.txt" "${fresh}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -DBENCH=${WORK}/bench -DFILES=out.txt
            -DGOLDENS=${WORK}/goldens -DOUT=${WORK}/out -P "${CHECK}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  set(${rc_var} "${rc}" PARENT_SCOPE)
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

check("a\n\nb;c\nd\ne\n" rc out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identical output failed the check:\n${out}")
endif()

check("a\n\nb;c\nx\ne\n" rc out)
if(rc EQUAL 0)
  message(FATAL_ERROR "differing output passed the check:\n${out}")
endif()
if(NOT out MATCHES "first[ \n]+at[ \n]+line[ \n]+4[ \n]+golden: d[ \n]+fresh: x\n")
  message(FATAL_ERROR "the failure does not name line 4 and print it:\n${out}")
endif()
