# Smoke-runs the extension benches: each must exit 0 and write a JSON
# report with its expected number of series.
#
# Usage: cmake -DEXT_MULTIFLOW=<bin> -DOUT_DIR=<dir>
#              -P bench_ext_smoke.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
function(expect_series bin flags want)
  get_filename_component(name "${bin}" NAME_WE)
  set(json "${OUT_DIR}/${name}.json")
  file(REMOVE "${json}")
  separate_arguments(args UNIX_COMMAND "${flags}")
  execute_process(COMMAND "${bin}" ${args} --json "${json}"
                  RESULT_VARIABLE code
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${name} ${flags} exited ${code}:\n${err}")
  endif()
  file(READ "${json}" report)
  string(JSON got LENGTH "${report}" series)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "${name}: ${got} series, expected ${want}")
  endif()
endfunction()

expect_series("${EXT_MULTIFLOW}" "" 5)
