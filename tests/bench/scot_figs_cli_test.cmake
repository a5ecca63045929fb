# scot_figs command-line contract, run as
#   cmake -DSCOT_FIGS=<path to scot_figs> -P scot_figs_cli_test.cmake
# --help exits 0 and names every figure; an unknown name, a stray
# positional and --trace on a figure other than latency each exit 2.  No
# case reaches a benchmark cell.

function(expect_exit code)
  execute_process(COMMAND ${SCOT_FIGS} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "scot_figs ${ARGN}: exit ${rc}, want ${code}\n"
                        "${out}${err}")
  endif()
  set(last_output "${out}${err}" PARENT_SCOPE)
endfunction()

expect_exit(0 --help)
foreach(name fig8 fig9 fig10 fig11 fig12 table1 table2 ablation_recovery
             ablation_unroll containers kv latency)
  if(NOT last_output MATCHES "[<|]${name}[|>]")
    message(FATAL_ERROR "--help does not list '${name}':\n${last_output}")
  endif()
endforeach()
expect_exit(2 nosuch)
expect_exit(2 fig9 extra)
expect_exit(2 fig8 --trace x.json)
