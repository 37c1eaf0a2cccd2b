# Runs every committed scenario conf through imobif_sim at one instance
# and requires exit 0 with six JSON series (the two ratios, and the
# informed run's notifications, retries, applied notifications and moved
# distance) per sweep variant, or six when the conf has no sweep, so the
# confs cannot rot; a `report = placement` conf yields one series (the
# final energies) per variant instead. Each conf's --print-config output,
# written to OUT_DIR/printed/<same name>.conf, must run to the same JSON
# (modulo wall_ms): the printed scenario, sweep and report included, is
# the one that runs. Runs start in OUT_DIR, so a conf's relative trace
# path only resolves against the conf's own directory. The first conf
# runs a second time with loss_rate 0.3, and ext_lossy.conf with
# fault_seed 7; both must report injected drops. ext_lossy.conf run with
# fault_seed set to its own value must match its plain run.
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

# The report with its machine-dependent wall_ms line dropped.
function(read_report json out_var)
  file(READ "${json}" report)
  string(REGEX REPLACE "\n[ ]*\"wall_ms\"[^\n]*" "" report "${report}")
  set(${out_var} "${report}" PARENT_SCOPE)
endfunction()

file(MAKE_DIRECTORY "${OUT_DIR}/printed")
foreach(conf IN LISTS confs)
  get_filename_component(name "${conf}" NAME_WE)
  set(json "${OUT_DIR}/${name}.json")
  run_conf("${conf}" "${json}")

  # The printed scenario runs to the same report.
  set(printed "${OUT_DIR}/printed/${name}.conf")
  execute_process(COMMAND "${SIM_BIN}" --config "${conf}" --print-config
                  WORKING_DIRECTORY "${OUT_DIR}"
                  RESULT_VARIABLE code
                  OUTPUT_FILE "${printed}"
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${conf} --print-config exited ${code}:\n${err}")
  endif()
  run_conf("${printed}" "${OUT_DIR}/printed/${name}.json")
  read_report("${json}" want)
  read_report("${OUT_DIR}/printed/${name}.json" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${printed} runs to another report than ${conf}")
  endif()

  # Expected series: six per variant of the conf's `sweep =` line, which
  # lists labelled variants between `|` or values after `key=` between `,`;
  # one per variant under `report = placement`.
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
  set(per_variant 6)
  file(STRINGS "${conf}" placement REGEX "^[ \t]*report[ \t]*=[ \t]*placement")
  if(placement)
    set(per_variant 1)
  endif()
  math(EXPR expected "${per_variant} * ${variants}")
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
expect_drops("${conf}" "${OUT_DIR}/loss.json" --loss_rate 0.3
             --notify_retry_cap 6)

# fault_seed only reseeds the injector: it must not switch the conf's
# loss off, and naming the conf's own fault seed must change no counter.
set(conf "${SCENARIO_DIR}/ext_lossy.conf")
expect_drops("${conf}" "${OUT_DIR}/fault_seed.json" --fault_seed 7)
run_conf("${conf}" "${OUT_DIR}/same_seed.json" --fault_seed 20050610)
file(READ "${OUT_DIR}/ext_lossy.json" want)
file(READ "${OUT_DIR}/same_seed.json" got)
string(JSON want GET "${want}" counters)
string(JSON got GET "${got}" counters)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "--fault_seed 20050610 changed ext_lossy's counters:\n"
                      "${got}\nwant:\n${want}")
endif()
