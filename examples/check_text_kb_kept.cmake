# Runs `run_experiment --demo --kb <copy of a text KB>` and fails if the run
# rewrote the text file instead of saving its snapshot next to it.
#
#   cmake -DRUN_EXPERIMENT=... -DTEXT_KB=... -DWORK_DIR=... \
#         -P check_text_kb_kept.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(kb "${WORK_DIR}/seed_kb.txt")
file(COPY_FILE "${TEXT_KB}" "${kb}")

execute_process(
  COMMAND "${RUN_EXPERIMENT}" --demo --budget 1 --evals 6 --quiet
          --no-interpretability --kb "${kb}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_experiment exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${TEXT_KB}"
                        "${kb}" RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "run_experiment rewrote the text KB ${kb}")
endif()
if(NOT EXISTS "${kb}.snap")
  message(FATAL_ERROR "run_experiment saved no snapshot at ${kb}.snap")
endif()
