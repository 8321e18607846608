# One command-line contract case: runs the command given after `--` and
# fails unless it exits with EXPECT_EXIT, its merged stdout/stderr matches
# EXPECT_REGEX and, when REJECT_REGEX is not empty, does not match it. CTest's
# PASS_REGULAR_EXPRESSION alone ignores the exit status.
#
#   cmake -DEXPECT_EXIT=<code> -DEXPECT_REGEX=<regex> -DREJECT_REGEX=<regex>
#         -P cli_expect.cmake -- <command> [args...]
#
# The command's arguments are kept as a CMake list, so none may contain ';'.
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "cli_expect: no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(NOT status STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR
    "exit status ${status}, expected ${EXPECT_EXIT}; output:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR
    "output does not match '${EXPECT_REGEX}'; output:\n${output}")
endif()
if(REJECT_REGEX AND output MATCHES "${REJECT_REGEX}")
  message(FATAL_ERROR "output matches '${REJECT_REGEX}'; output:\n${output}")
endif()
