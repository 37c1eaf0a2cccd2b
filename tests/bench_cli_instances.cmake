# Runs bench binaries with malformed flag values and requires every run to
# fail with the std::invalid_argument that names the flag: an instance
# count "-1" must not wrap to SIZE_MAX, a positional "2x" must not read as
# 2, and "0" must not write an artifact with no instances; a negative or
# NaN "--checkpoint-every-s" must not run a sweep that never checkpoints.
# imobif_sim (SIM_BIN) sets the scenario only through scenario keys:
# "--seed -1" must not wrap to 2^64 - 1 and "--loss_rate -0.2" must not
# run a lossless sweep; the retired --loss, --fault-seed and --lifetime
# flags and a conf's `lifetime = true` are unknown scenario keys, not
# options that override the scenario behind --print-config's back. It
# must also reject a malformed labelled sweep with a message that names
# `sweep`, and its --print-config must show the fault keys it was given.
#
# Usage: cmake "-DBENCH_BINS=<bin>;<bin>..." -DSIM_BIN=<imobif_sim>
#              -DOUT_DIR=<dir> -P bench_cli_instances.cmake
function(expect_rejected bin case pattern)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${bin}" ${args}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(code EQUAL 0)
    message(FATAL_ERROR "${bin} '${case}' was accepted:\n${out}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${bin} '${case}' failed without the expected "
                        "message '${pattern}' (exit ${code}):\n${err}")
  endif()
endfunction()

foreach(bin IN LISTS BENCH_BINS)
  foreach(case IN ITEMS "--instances -1" "2x" "--instances 0")
    expect_rejected("${bin}" "${case}"
                    "--instances expects a positive integer, got")
  endforeach()
  foreach(every IN ITEMS -5 nan inf)
    expect_rejected("${bin}" "--instances 1 --checkpoint-every-s ${every}"
                    "--checkpoint-every-s expects a finite number of seconds >= 0, got ${every}")
  endforeach()
endforeach()

expect_rejected("${SIM_BIN}" "--instances 1 --seed -1"
                "scenario key 'seed' expects an unsigned integer, got '-1'")
expect_rejected("${SIM_BIN}" "--instances 1 --loss_rate -0.2"
                "loss_rate outside \\[0, 1\\]")
foreach(retired IN ITEMS "loss 0.3" "fault-seed 7" "lifetime")
  string(REGEX REPLACE " .*" "" key "${retired}")
  expect_rejected("${SIM_BIN}" "--instances 1 --${retired}"
                  "unknown scenario key '${key}'")
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")
file(WRITE "${OUT_DIR}/lifetime.conf" "strategy = max-lifetime\nlifetime = true\n")
expect_rejected("${SIM_BIN}" "--instances 1 --config ${OUT_DIR}/lifetime.conf"
                "unknown scenario key 'lifetime'")
expect_rejected("${SIM_BIN}" "--instances 1 --report lifespan"
                "report: expected energy, lifetime or placement, got lifespan")

expect_rejected("${SIM_BIN}" "--instances 1 --sweep '(a) k=1 | (b) kk=2'"
                "sweep: variant \\(b\\): .*unknown scenario key 'kk'")
expect_rejected("${SIM_BIN}" "--instances 1 --sweep '(a) k=1 | (a) k=2'"
                "sweep: duplicate variant \\(a\\)")
expect_rejected("${SIM_BIN}" "--instances 1 --sweep '(a) k=1 | | (b) k=2'"
                "sweep: empty variant in")

# --print-config prints the scenario that runs, fault keys included.
execute_process(COMMAND "${SIM_BIN}" --loss_rate 0.3 --fault_seed 9
                        --notify_retry_cap 6 --print-config
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "imobif_sim --print-config failed (exit ${code}):\n${err}")
endif()
foreach(line IN ITEMS "loss_rate = 0.3" "fault_seed = 9" "notify_retry_cap = 6")
  string(FIND "${out}" "\n${line}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "imobif_sim --loss_rate 0.3 --fault_seed 9 "
                        "--notify_retry_cap 6 --print-config lacks '${line}':\n${out}")
  endif()
endforeach()
