# Backend-differential driver: run one DSL program through hpfc on the
# default in-process backend and again with BACKEND_ARGS, and require
# identical stdout.
#
#   cmake -DHPFC=<hpfc> -DPROGRAM=<file.hpf> "-DBACKEND_ARGS=--backend=proc;--ranks=8"
#         -P backend_diff.cmake
if(NOT DEFINED HPFC OR NOT DEFINED PROGRAM OR NOT DEFINED BACKEND_ARGS)
  message(FATAL_ERROR "backend_diff.cmake needs -DHPFC=..., -DPROGRAM=... and -DBACKEND_ARGS=...")
endif()

function(run_hpfc out)
  execute_process(COMMAND ${HPFC} ${ARGN} ${PROGRAM}
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hpfc ${ARGN} failed (${rc}): ${stderr}")
  endif()
  set(${out} "${stdout}" PARENT_SCOPE)
endfunction()

run_hpfc(out_inproc)
run_hpfc(out_other ${BACKEND_ARGS})
if(NOT out_inproc STREQUAL out_other)
  message(FATAL_ERROR "backend outputs differ for ${PROGRAM}\n"
                      "--- inproc ---\n${out_inproc}\n"
                      "--- ${BACKEND_ARGS} ---\n${out_other}")
endif()
message(STATUS "inproc and ${BACKEND_ARGS} agree for ${PROGRAM}")
