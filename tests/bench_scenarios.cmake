# Runs every committed scenario conf through imobif_sim at one instance
# and requires exit 0 with six JSON series (the two ratios, and the
# informed run's notifications, retries, applied notifications and moved
# distance) per sweep variant, or six when the conf has no sweep, so the
# confs cannot rot. Runs start in OUT_DIR, so a conf's relative trace
# path only resolves against the conf's own directory. The first conf
# runs a second time with --loss 0.3, and ext_lossy.conf with
# --fault-seed 7; both must report injected drops. ext_lossy.conf run
# with --fault-seed set to its own fault_seed must match its plain run.
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
                  WORKING_DIRECTORY "${OUT_DIR}"
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

  # Expected series: six per variant of the conf's `sweep =` line, which
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
  math(EXPR expected "6 * ${variants}")
  file(READ "${json}" report)
  string(JSON series LENGTH "${report}" series)
  if(NOT series EQUAL expected)
    message(FATAL_ERROR "${name}: ${series} series, expected ${expected}")
  endif()
endforeach()

function(expect_drops conf json)
  run_conf("${conf}" "${json}" ${ARGN})
  file(READ "${json}" report)
  string(JSON dropped GET "${report}" counters dropped_injected)
  if(NOT dropped GREATER 0)
    message(FATAL_ERROR "${ARGN} on ${conf} injected no drops")
  endif()
endfunction()

list(GET confs 0 conf)
expect_drops("${conf}" "${OUT_DIR}/loss.json" --loss 0.3)

# --fault-seed only reseeds the injector: it must not switch the conf's
# loss off, and naming the conf's own fault seed must change no counter.
set(conf "${SCENARIO_DIR}/ext_lossy.conf")
expect_drops("${conf}" "${OUT_DIR}/fault_seed.json" --fault-seed 7)
run_conf("${conf}" "${OUT_DIR}/same_seed.json" --fault-seed 20050610)
file(READ "${OUT_DIR}/ext_lossy.json" want)
file(READ "${OUT_DIR}/same_seed.json" got)
string(JSON want GET "${want}" counters)
string(JSON got GET "${got}" counters)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "--fault-seed 20050610 changed ext_lossy's counters:\n"
                      "${got}\nwant:\n${want}")
endif()
