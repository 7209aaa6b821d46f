// Process-sandboxed cell execution (ISSUE 6 tentpole, --isolate=process).
//
// Each experiment cell is dispatched to a forked worker subprocess: the
// child runs the cell with the full in-process machinery (everything is
// inherited across fork, including the suite, configs, and options
// closures), serializes its complete CellResult over a pipe, and _exit()s.
// The parent — which stays single-threaded while the pool runs — drives up
// to `jobs` concurrent children with poll(2)/waitpid(2):
//
//   child writes payload + EOF, exits 0  -> Status::Payload (the pipe
//       protocol: one cell_codec JSON document, length-delimited by EOF)
//   child dies on a signal (SIGSEGV, SIGKILL, OOM kill, abort)
//       -> Status::Crashed with the signal number; the grid continues
//   child exits non-zero or closes the pipe without a valid payload
//       -> Status::Crashed with the exit code
//   child overruns the wall-clock deadline -> parent SIGKILLs it and
//       reports Status::TimedOut (preemptive, unlike the cooperative
//       thread-mode watchdog — a worker wedged anywhere dies here)
//
// Crashed and TimedOut attempts are the "transient" class: the pool
// re-forks them up to `retries` times with seeded exponential backoff
// before surfacing the final outcome. Payload outcomes are never retried —
// an in-taxonomy fault captured by the cell's own boundary is
// deterministic. This is the same harness/untrusted-execution split QBDI's
// validator uses: the orchestrator must survive anything the executed cell
// does.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace riscmp::engine {

struct WorkerOutcome {
  enum class Status : std::uint8_t { Payload, Crashed, TimedOut };
  Status status = Status::Payload;
  std::string payload;  ///< child's pipe payload (Status::Payload)
  int signo = 0;        ///< terminating signal (Crashed; 0 for bad exits)
  int exitCode = 0;     ///< exit code (Crashed with signo == 0)
  unsigned attempt = 0;  ///< attempt index that produced this outcome
};

struct ProcessPoolOptions {
  unsigned jobs = 1;             ///< max concurrent worker processes
  std::uint32_t deadlineMs = 0;  ///< per-attempt wall clock (0 = none)
  unsigned retries = 0;          ///< extra attempts for Crashed/TimedOut
  unsigned backoffBaseMs = 100;  ///< retry backoff base (doubles per try)
  std::uint64_t retrySeed = 0;   ///< jitter seed (deterministic schedule)
  bool failFast = false;         ///< stop forking after the first failure
};

/// Deterministic retry backoff: base << (attempt-1) plus seeded jitter in
/// [0, base). Shared by the process pool and the thread-mode retry loop so
/// both isolation modes follow the same schedule.
std::uint64_t retryBackoffDelayMs(unsigned backoffBaseMs, std::uint64_t seed,
                                  std::size_t task, unsigned attempt);

/// Run tasks [0, count) in forked workers, at most options.jobs at a time,
/// entirely from the calling thread. `childRun(task)` executes in the
/// forked child and returns the payload bytes to ship back; it must not
/// throw. `onOutcome(task, outcome)` executes in the parent as each task
/// reaches its final outcome, and returns true when the task's cell
/// succeeded (steering --fail-fast). Returns the tasks never started
/// because fail-fast tripped, in ascending order.
std::vector<std::size_t> runForkedCells(
    std::size_t count, const ProcessPoolOptions& options,
    const std::function<std::string(std::size_t)>& childRun,
    const std::function<bool(std::size_t, const WorkerOutcome&)>& onOutcome);

}  // namespace riscmp::engine
