# Runs `gcsim simulate` on a text workload and on the same workload written
# as a binary gctrace, in both engines, and fails unless all four stats
# tables are identical: the binary load path (TraceView::materialize, with
# the block ids it produces) must feed the engines exactly what the text
# loader does.
#
#   cmake -DGCSIM=<gcsim> -DTEXT=<w.gct> -DBIN=<w.bin.gct> -P compare_simulate.cmake
foreach(var GCSIM TEXT BIN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_simulate.cmake needs -D${var}=...")
  endif()
endforeach()

set(reference "")
foreach(mode fast verify)
  foreach(file ${TEXT} ${BIN})
    execute_process(
      COMMAND ${GCSIM} simulate --workload ${file} --capacity 64
        --policy item-lru --policy block-lru --policy iblp --mode ${mode}
      OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "gcsim simulate --mode ${mode} on ${file} "
                          "exited ${rc}: ${err}")
    endif()
    # The stats table: its border and row lines, without the header line
    # that names the engine.
    string(REGEX MATCHALL "[|+][^\n]*" table "${out}")
    if(table STREQUAL "")
      message(FATAL_ERROR "no stats table from --mode ${mode} on ${file}:\n${out}")
    endif()
    if(reference STREQUAL "")
      set(reference "${table}")
      set(reference_run "--mode ${mode} on ${file}")
    elseif(NOT table STREQUAL reference)
      message(FATAL_ERROR "stats of --mode ${mode} on ${file} differ from "
                          "${reference_run}:\n${out}")
    endif()
  endforeach()
endforeach()
message(STATUS "4 identical stats tables (text/binary x fast/verify)")
