# Reproduction pins: run every paper figure/table/ablation driver, every
# example and the fleet smoke sweep, and compare the SHA-256 of each one's
# stdout with the value committed in reproduction_pins.txt.
#
# Every program here is deterministic from its built-in seeds, so a
# refactor must leave each stdout byte-identical; a deliberate model
# change re-pins the affected lines (the failure message prints each fresh
# line in the file's format).
#
# Usage (registered as a ctest by the top-level CMakeLists.txt):
#   cmake -DBIN_DIR=<dir> -DPINS=<reproduction_pins.txt>
#         -DPROGRAMS=<comma-separated names> -P reproduction_pins.cmake
#
# Pin file format: one "<sha256>  <program> [args...]" line per run; blank
# lines and lines starting with '#' are ignored.  Every name in PROGRAMS
# must appear in at least one line, so a new driver cannot go unpinned.
cmake_minimum_required(VERSION 3.16)

foreach(var BIN_DIR PINS PROGRAMS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "reproduction_pins.cmake: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS "${PINS}" pin_lines)
string(REPLACE "," ";" expected_programs "${PROGRAMS}")
set(pinned_programs "")
set(failures 0)
set(runs 0)
foreach(line IN LISTS pin_lines)
  if(line STREQUAL "" OR line MATCHES "^#")
    continue()
  endif()
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed pin line: '${line}'")
  endif()
  set(pinned "${CMAKE_MATCH_1}")
  set(run "${CMAKE_MATCH_2}")
  separate_arguments(argv UNIX_COMMAND "${run}")
  list(GET argv 0 program)
  list(REMOVE_AT argv 0)
  list(APPEND pinned_programs "${program}")
  execute_process(
    COMMAND "${BIN_DIR}/${program}" ${argv}
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr
    RESULT_VARIABLE status)
  math(EXPR runs "${runs} + 1")
  if(NOT status EQUAL 0)
    message(SEND_ERROR "${run}: exited with '${status}'\n${stderr}")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  string(SHA256 fresh "${stdout}")
  if(NOT fresh STREQUAL pinned)
    message(SEND_ERROR "${run}: stdout digest changed\n"
                       "  pinned: ${pinned}\n"
                       "  fresh line: ${fresh}  ${run}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

foreach(program IN LISTS expected_programs)
  if(NOT program IN_LIST pinned_programs)
    message(SEND_ERROR "${program} has no line in ${PINS}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} reproduction pin(s) failed")
endif()
message(STATUS "${runs} reproduction runs match their pins")
