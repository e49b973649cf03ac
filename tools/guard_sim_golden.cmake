# Runs CI's guard-sim sweep and compares its --json dump byte for byte with
# the committed golden (tests/golden/guard_sim_ci.json). SDC flip positions
# are a pure function of the plan, so any change to the draw, the event
# numbering, or the guard ladder shows up here.
#
#   cmake -DWSIM=path/to/wsim -DGOLDEN=golden.json -DOUT=out.json \
#         [-DINTERP=fast|legacy|vector] -P guard_sim_golden.cmake
set(interp_args)
if(INTERP)
  set(interp_args --interp ${INTERP})
endif()
execute_process(
  COMMAND ${WSIM} guard-sim --regions 2 --batch 32 --flip-prob 3e-7,1e-6
          --detect dual --fleet "K1200,Titan X" ${interp_args} --json ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "guard-sim exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
