# Runs bench binaries with malformed instance counts and requires every
# run to fail with the std::invalid_argument that names the flag: "-1"
# must not wrap to SIZE_MAX, a positional "2x" must not read as 2, and
# "0" must not write an artifact with no instances.
#
# Usage: cmake "-DBENCH_BINS=<bin>;<bin>..." -P bench_cli_instances.cmake
set(cases "--instances -1" "2x" "--instances 0")
foreach(bin IN LISTS BENCH_BINS)
  foreach(case IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${case}")
    execute_process(COMMAND "${bin}" ${args}
                    RESULT_VARIABLE code
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(code EQUAL 0)
      message(FATAL_ERROR "${bin} '${case}' was accepted:\n${out}")
    endif()
    if(NOT err MATCHES "--instances expects a positive integer, got")
      message(FATAL_ERROR "${bin} '${case}' failed without naming "
                          "--instances (exit ${code}):\n${err}")
    endif()
  endforeach()
endforeach()
