# Writes OUTPUT, a header defining LOS_GIT_SHA as SOURCE_DIR's HEAD (12 hex
# digits, "-dirty" when tracked files differ from it, "unknown" outside a
# git checkout). Run on every build by the los_git_sha target; the file is
# rewritten only when its text changes, so an unchanged tree recompiles
# nothing.
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  execute_process(
    COMMAND git --no-optional-locks status --porcelain --untracked-files=no
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(NOT "${changes}" STREQUAL "")
    string(APPEND sha "-dirty")
  endif()
else()
  set(sha "unknown")
endif()
set(text "#define LOS_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT "${old}" STREQUAL "${text}")
  file(WRITE ${OUTPUT} "${text}")
endif()
