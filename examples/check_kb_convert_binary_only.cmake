# `kb_tool convert` writes only the binary snapshot: converting a text KB
# with no format argument must produce a file that starts with the snapshot
# magic, and asking for `text` must exit 2 with a message that names the
# format convert does write, leaving OUT unwritten.
#
#   cmake -DKB_TOOL=... -DTEXT_KB=... -DWORK_DIR=... \
#         -P check_kb_convert_binary_only.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(snapshot "${WORK_DIR}/kb.bin")
execute_process(COMMAND "${KB_TOOL}" convert "${TEXT_KB}" "${snapshot}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kb_tool convert exited with ${rc}")
endif()
file(READ "${snapshot}" magic LIMIT 8 HEX)
if(NOT magic STREQUAL "534d4b42534e4150")  # "SMKBSNAP"
  message(FATAL_ERROR "kb_tool convert wrote no binary snapshot")
endif()

set(text_out "${WORK_DIR}/kb.txt")
execute_process(COMMAND "${KB_TOOL}" convert "${TEXT_KB}" "${text_out}" text
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "kb_tool convert ... text exited with ${rc}, not 2")
endif()
if(NOT err MATCHES "binary")
  message(FATAL_ERROR "rejection does not name binary: ${err}")
endif()
if(EXISTS "${text_out}")
  message(FATAL_ERROR "kb_tool convert ... text wrote ${text_out}")
endif()
