# Runs every example end to end: each must exit 0. parallel_sweep must
# also reject instance counts below 1 with the std::invalid_argument that
# names the flag, instead of aborting in std::vector or writing an empty
# artifact.
#
# Usage: cmake -DQUICKSTART=<bin> -DCUSTOM_STRATEGY=<bin>
#              -DPARALLEL_SWEEP=<bin> -P examples_smoke.cmake
set(runs "${QUICKSTART}" "${CUSTOM_STRATEGY}"
         "${PARALLEL_SWEEP} --instances 2 --jobs 2")
foreach(run IN LISTS runs)
  separate_arguments(cmd UNIX_COMMAND "${run}")
  execute_process(COMMAND ${cmd}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "'${run}' failed (exit ${code}):\n${out}\n${err}")
  endif()
endforeach()

foreach(count IN ITEMS -1 0)
  execute_process(COMMAND "${PARALLEL_SWEEP}" --instances ${count}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "parallel_sweep '--instances ${count}' was "
                        "accepted:\n${out}")
  endif()
  if(NOT err MATCHES "--instances expects a positive integer, got")
    message(FATAL_ERROR "parallel_sweep '--instances ${count}' failed "
                        "without naming --instances (exit ${code}):\n${err}")
  endif()
endforeach()
