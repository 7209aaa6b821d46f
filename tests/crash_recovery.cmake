# Crash-recovery acceptance (ISSUE 6): a cell that segfaults, is SIGKILLed,
# or hangs under --isolate=process must not take the grid down — the bench
# exits 3 with the fault named in a partial report — and a rerun with the
# same --store re-runs only the failed cell and reproduces the clean report
# byte-for-byte (modulo the engine footer, which counts store hits).
#
# Usage: cmake -DBENCH=<path-to-paper_report> -DOUT=<scratch-dir>
#              -P crash_recovery.cmake
file(MAKE_DIRECTORY ${OUT})

set(CELL "LBM/GCC 12.2 RISC-V")

# Clean baseline without a store: the report every recovered run must
# reproduce.
execute_process(
  COMMAND ${BENCH} --scale=0.05 --jobs=2
  OUTPUT_FILE ${OUT}/baseline.txt
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "baseline paper_report exited ${status}")
endif()
file(READ ${OUT}/baseline.txt BASELINE)
string(REGEX REPLACE "engine: [^\n]*\n" "" BASELINE "${BASELINE}")

# One fault class end to end: inject -> exit 3 + named fault + partial
# report -> rerun with the same store -> exit 0 + byte-identical report.
# Each variant starts from its own empty store.
function(run_recovery variant fault expect)
  set(store ${OUT}/${variant}-store)
  file(REMOVE_RECURSE ${store})
  execute_process(
    COMMAND ${BENCH} --scale=0.05 --jobs=2 --isolate=process --deadline=2
            "--inject-fault=${CELL}:${fault}" --store=${store}
    OUTPUT_FILE ${OUT}/${variant}.txt
    RESULT_VARIABLE status)
  if(NOT status EQUAL 3)
    message(FATAL_ERROR "${variant}: injected run must exit 3 (cell failed), "
                        "got ${status}")
  endif()
  file(READ ${OUT}/${variant}.txt crashed)
  if(NOT crashed MATCHES "${expect}")
    message(FATAL_ERROR "${variant}: report does not name the fault "
                        "(expected to match '${expect}')")
  endif()
  if(NOT crashed MATCHES "PARTIAL REPORT: 1/20 cells failed")
    message(FATAL_ERROR "${variant}: partial-report footer missing")
  endif()
  if(NOT EXISTS ${store})
    message(FATAL_ERROR "${variant}: result store was not written")
  endif()

  execute_process(
    COMMAND ${BENCH} --scale=0.05 --jobs=2 --store=${store}
    OUTPUT_FILE ${OUT}/${variant}-resumed.txt
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${variant}: resumed run exited ${status}")
  endif()
  file(READ ${OUT}/${variant}-resumed.txt resumed)
  if(NOT resumed MATCHES "store-hits=19")
    message(FATAL_ERROR "${variant}: rerun re-ran more than the failed cell")
  endif()
  string(REGEX REPLACE "engine: [^\n]*\n" "" resumed "${resumed}")
  if(NOT resumed STREQUAL BASELINE)
    message(FATAL_ERROR "${variant}: resumed report differs from the clean "
                        "baseline (beyond the engine footer)")
  endif()
  message(STATUS "${variant}: crash captured, grid survived, store rerun "
                 "byte-identical")
endfunction()

run_recovery(segv segv "CrashFault.*killed by SIGSEGV \\(signal 11\\)")
run_recovery(kill kill "CrashFault.*killed by SIGKILL \\(signal 9\\)")
run_recovery(hang hang "TimeoutFault")
message(STATUS "crash recovery: all fault classes recovered")
