# Runs a sampled `gcsim sweep --csv` on a text workload and on the same
# workload written as a binary gctrace, and fails unless the two CSVs are
# byte-identical: the sampler and the row names must not depend on the
# input format.
#
#   cmake -DGCSIM=<gcsim> -DTEXT=<w.gct> -DBIN=<w.bin.gct> -DOUT=<dir> \
#     -P compare_sampled_sweep.cmake
foreach(var GCSIM TEXT BIN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_sampled_sweep.cmake needs -D${var}=...")
  endif()
endforeach()

set(csvs "")
foreach(file ${TEXT} ${BIN})
  get_filename_component(stem ${file} NAME)
  set(csv ${OUT}/sampled-${stem}.csv)
  execute_process(
    COMMAND ${GCSIM} sweep --workload ${file}
      --policies item-lru,block-lru,iblp --capacities 32,64
      --sample-rate 0.5 --csv ${csv}
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gcsim sweep --sample-rate 0.5 on ${file} "
                        "exited ${rc}: ${err}")
  endif()
  list(APPEND csvs ${csv})
endforeach()

list(GET csvs 0 text_csv)
list(GET csvs 1 bin_csv)
file(READ ${text_csv} text_out)
file(READ ${bin_csv} bin_out)
if(NOT text_out STREQUAL bin_out)
  message(FATAL_ERROR "sampled sweep CSVs differ:\n"
                      "${TEXT}:\n${text_out}\n${BIN}:\n${bin_out}")
endif()
message(STATUS "identical sampled sweep CSVs (text/binary)")
