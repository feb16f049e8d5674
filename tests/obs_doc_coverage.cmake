# Telemetry documentation coverage: every counter, histogram and span name
# that src/ emits through CYCLICK_COUNT / CYCLICK_SPAN / CYCLICK_TIME_SCOPE
# must appear in docs/OBSERVABILITY.md. Emitted names are the string
# literals in a call's first argument (so `cond ? "a" : "b"` yields both);
# documented names are the doc's backticked tokens, with one brace group per
# token expanded: `engine.class.{runs,fixed_step}` documents
# engine.class.runs and engine.class.fixed_step.
#
#   cmake -DSRC_DIR=<repo>/src -DDOC=<repo>/docs/OBSERVABILITY.md -P obs_doc_coverage.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED SRC_DIR OR NOT DEFINED DOC)
  message(FATAL_ERROR "obs_doc_coverage.cmake needs -DSRC_DIR=... and -DDOC=...")
endif()

# ';' is CMake's list separator: blank it out of everything scanned.
file(READ "${DOC}" doc)
string(REPLACE ";" " " doc "${doc}")
string(REGEX REPLACE "```[^`]*```" "" doc "${doc}")  # fenced code blocks
string(REGEX MATCHALL "`[^`]+`" tokens "${doc}")
set(documented "")
foreach(tok IN LISTS tokens)
  string(REPLACE "`" "" tok "${tok}")
  if(tok MATCHES "^([^{}]*)\\{([^{}]*)\\}(.*)$")
    set(pre "${CMAKE_MATCH_1}")
    set(post "${CMAKE_MATCH_3}")
    string(REPLACE "," ";" alts "${CMAKE_MATCH_2}")
    foreach(alt IN LISTS alts)
      string(STRIP "${alt}" alt)
      list(APPEND documented "${pre}${alt}${post}")
    endforeach()
  else()
    list(APPEND documented "${tok}")
  endif()
endforeach()

file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(emitted "")
foreach(f IN LISTS sources)
  file(READ "${f}" text)
  string(REPLACE ";" " " text "${text}")
  string(REGEX MATCHALL "CYCLICK_(COUNT|SPAN|TIME_SCOPE)\\([^,]*," calls "${text}")
  foreach(call IN LISTS calls)
    string(REGEX MATCHALL "\"[^\"]+\"" names "${call}")
    foreach(name IN LISTS names)
      string(REPLACE "\"" "" name "${name}")
      list(APPEND emitted "${name}")
    endforeach()
  endforeach()
endforeach()
list(REMOVE_DUPLICATES emitted)
list(LENGTH emitted count)
if(count EQUAL 0)
  message(FATAL_ERROR "no telemetry names found under ${SRC_DIR}: the scan is broken")
endif()

set(missing "")
foreach(name IN LISTS emitted)
  if(NOT name IN_LIST documented)
    list(APPEND missing "${name}")
  endif()
endforeach()
if(missing)
  list(SORT missing)
  string(REPLACE ";" "\n  " text "${missing}")
  message(FATAL_ERROR "telemetry names emitted under ${SRC_DIR} but missing from ${DOC}:\n  ${text}")
endif()
message(STATUS "all ${count} telemetry names emitted under ${SRC_DIR} are documented")
