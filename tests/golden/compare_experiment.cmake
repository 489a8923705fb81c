# Runs `bench_paper <id> --quick` and compares its stdout byte for byte with
# the committed golden file. The experiment_<id> ctest cases call it as
#   cmake -DPROGRAM=<bench_paper> -DEXPERIMENT=<id> -DGOLDEN=<golden file>
#         -DACTUAL=<output file> -P compare_experiment.cmake
execute_process(COMMAND "${PROGRAM}" "${EXPERIMENT}" --quick
                OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_paper ${EXPERIMENT} --quick failed: ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${ACTUAL}" actual)
  message(FATAL_ERROR "bench_paper ${EXPERIMENT} --quick differs from ${GOLDEN}\n"
                      "(diff it against ${ACTUAL}); this run printed:\n${actual}")
endif()
