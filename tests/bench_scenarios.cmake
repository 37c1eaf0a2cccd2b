# Runs every committed scenario conf through imobif_sim at one instance
# and requires exit 0 with three JSON series (the two ratios and the
# notification counts) per sweep variant, or three when the conf has no
# sweep, so the confs cannot rot. The first conf runs a second time with
# --loss 0.3 and must report injected drops.
#
# Usage: cmake -DSIM_BIN=<imobif_sim> -DSCENARIO_DIR=<dir> -DOUT_DIR=<dir>
#              -P bench_scenarios.cmake
file(GLOB confs "${SCENARIO_DIR}/*.conf")
list(SORT confs)
if(NOT confs)
  message(FATAL_ERROR "no .conf files under ${SCENARIO_DIR}")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

function(run_conf conf json)
  execute_process(COMMAND "${SIM_BIN}" --config "${conf}" --instances 1
                          --jobs 2 --json "${json}" ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${conf} ${ARGN} exited ${code}:\n${out}\n${err}")
  endif()
endfunction()

foreach(conf IN LISTS confs)
  get_filename_component(name "${conf}" NAME_WE)
  set(json "${OUT_DIR}/${name}.json")
  run_conf("${conf}" "${json}")

  # Expected series: three per variant of the conf's `sweep =` line, which
  # lists labelled variants between `|` or values after `key=` between `,`.
  file(STRINGS "${conf}" sweep_lines REGEX "^[ \t]*sweep[ \t]*=")
  set(variants 1)
  if(sweep_lines)
    if(sweep_lines MATCHES "[|]")
      string(REGEX MATCHALL "[|]" separators "${sweep_lines}")
    else()
      string(REGEX MATCHALL "," separators "${sweep_lines}")
    endif()
    list(LENGTH separators variants)
    math(EXPR variants "${variants} + 1")
  endif()
  math(EXPR expected "3 * ${variants}")
  file(READ "${json}" report)
  string(JSON series LENGTH "${report}" series)
  if(NOT series EQUAL expected)
    message(FATAL_ERROR "${name}: ${series} series, expected ${expected}")
  endif()
endforeach()

list(GET confs 0 conf)
set(json "${OUT_DIR}/loss.json")
run_conf("${conf}" "${json}" --loss 0.3)
file(READ "${json}" report)
string(JSON dropped GET "${report}" counters dropped_injected)
if(NOT dropped GREATER 0)
  message(FATAL_ERROR "--loss 0.3 on ${conf} injected no drops")
endif()
