#include "engine/process_worker.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <list>

#include "support/bits.hpp"
#include "support/fault.hpp"

namespace riscmp::engine {

namespace {

using Clock = std::chrono::steady_clock;

struct Pending {
  std::size_t task = 0;
  unsigned attempt = 0;
  Clock::time_point readyAt;
};

struct Running {
  std::size_t task = 0;
  unsigned attempt = 0;
  pid_t pid = -1;
  int fd = -1;
  std::string buffer;
  bool pipeDone = false;
  Clock::time_point start;
  Clock::time_point deadline;  ///< == start when no deadline is set
  bool hasDeadline = false;
  bool killedForDeadline = false;
};

void drainPipe(Running& child) {
  if (child.fd < 0) return;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(child.fd, chunk, sizeof chunk);
    if (n > 0) {
      child.buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      child.pipeDone = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      child.pipeDone = true;  // broken pipe reads as end-of-payload
    }
    return;
  }
}

void writeAll(int fd, const std::string& data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written,
                              data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent vanished; nothing sensible left to do in the child
    }
    written += static_cast<std::size_t>(n);
  }
}

}  // namespace

std::uint64_t retryBackoffDelayMs(unsigned backoffBaseMs, std::uint64_t seed,
                                  std::size_t task, unsigned attempt) {
  if (attempt == 0) return 0;
  const unsigned shift = attempt - 1 < 16 ? attempt - 1 : 16;
  const std::uint64_t base =
      static_cast<std::uint64_t>(backoffBaseMs) << shift;
  const std::uint64_t jitter =
      backoffBaseMs == 0
          ? 0
          : mix64(seed ^ mix64(task) ^ attempt) % backoffBaseMs;
  return base + jitter;
}

std::vector<std::size_t> runForkedCells(
    std::size_t count, const ProcessPoolOptions& options,
    const std::function<std::string(std::size_t)>& childRun,
    const std::function<bool(std::size_t, const WorkerOutcome&)>& onOutcome) {
  std::vector<std::size_t> skipped;
  if (count == 0) return skipped;

  const unsigned jobs = options.jobs == 0 ? 1 : options.jobs;

  std::deque<Pending> queue;
  const auto startOfRun = Clock::now();
  for (std::size_t task = 0; task < count; ++task) {
    queue.push_back({task, 0, startOfRun});
  }
  std::list<Running> running;
  bool sawFailure = false;

  const auto spawn = [&](const Pending& pending) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw ConfigError("process isolation: pipe failed: " +
                        std::string(std::strerror(errno)));
    }
    // Flush the parent's stdio so the child's copy of the buffers is
    // empty — the child exits via _exit and must not replay them.
    std::fflush(stdout);
    std::fflush(stderr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw ConfigError("process isolation: fork failed: " +
                        std::string(std::strerror(errno)));
    }
    if (pid == 0) {
      // Worker child: run the cell, ship the payload, vanish. _exit keeps
      // the parent's atexit handlers and stdio from running twice.
      ::close(fds[0]);
      std::string payload;
      try {
        payload = childRun(pending.task);
      } catch (...) {
        ::close(fds[1]);
        ::_exit(3);
      }
      writeAll(fds[1], payload);
      ::close(fds[1]);
      ::_exit(0);
    }

    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);

    Running child;
    child.task = pending.task;
    child.attempt = pending.attempt;
    child.pid = pid;
    child.fd = fds[0];
    child.start = Clock::now();
    child.hasDeadline = options.deadlineMs != 0;
    child.deadline =
        child.start + std::chrono::milliseconds(options.deadlineMs);
    running.push_back(std::move(child));
  };

  const auto finish = [&](Running& child, int status) {
    drainPipe(child);
    ::close(child.fd);
    child.fd = -1;

    WorkerOutcome outcome;
    outcome.attempt = child.attempt;
    if (child.killedForDeadline) {
      outcome.status = WorkerOutcome::Status::TimedOut;
    } else if (WIFSIGNALED(status)) {
      outcome.status = WorkerOutcome::Status::Crashed;
      outcome.signo = WTERMSIG(status);
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      outcome.status = WorkerOutcome::Status::Payload;
      outcome.payload = std::move(child.buffer);
    } else {
      outcome.status = WorkerOutcome::Status::Crashed;
      outcome.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    const bool transient = outcome.status != WorkerOutcome::Status::Payload;
    if (transient && child.attempt < options.retries) {
      const std::uint64_t delayMs = retryBackoffDelayMs(
          options.backoffBaseMs, options.retrySeed, child.task,
          child.attempt + 1);
      queue.push_back({child.task, child.attempt + 1,
                       Clock::now() + std::chrono::milliseconds(delayMs)});
      return;
    }
    if (!onOutcome(child.task, outcome)) sawFailure = true;
  };

  while (!queue.empty() || !running.empty()) {
    const auto now = Clock::now();

    if (options.failFast && sawFailure && !queue.empty()) {
      for (const Pending& pending : queue) skipped.push_back(pending.task);
      queue.clear();
    }

    // Fill free worker slots with tasks whose backoff has elapsed.
    for (auto it = queue.begin();
         running.size() < jobs && it != queue.end();) {
      if (it->readyAt <= now) {
        spawn(*it);
        it = queue.erase(it);
      } else {
        ++it;
      }
    }

    if (running.empty()) {
      if (queue.empty()) break;
      // Everything is backing off; sleep until the earliest retry.
      auto earliest = queue.front().readyAt;
      for (const Pending& pending : queue) {
        earliest = std::min(earliest, pending.readyAt);
      }
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          earliest - Clock::now());
      if (wait.count() > 0) {
        ::poll(nullptr, 0, static_cast<int>(wait.count()));
      }
      continue;
    }

    // Wait for pipe traffic, bounded by the nearest deadline or retry so
    // overrunning workers are killed promptly.
    int timeoutMs = 50;
    for (const Running& child : running) {
      if (!child.hasDeadline || child.killedForDeadline) continue;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              child.deadline - now);
      timeoutMs = std::min<int>(
          timeoutMs,
          remaining.count() < 1 ? 1 : static_cast<int>(remaining.count()));
    }
    std::vector<pollfd> fds;
    fds.reserve(running.size());
    for (const Running& child : running) {
      fds.push_back({child.fd, POLLIN, 0});
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);

    std::size_t i = 0;
    for (Running& child : running) {
      if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) drainPipe(child);
      ++i;
    }

    // Enforce deadlines: SIGKILL is deliberate — a wedged worker may be
    // ignoring everything milder, and the cell's state is disposable.
    const auto afterPoll = Clock::now();
    for (Running& child : running) {
      if (child.hasDeadline && !child.killedForDeadline &&
          afterPoll >= child.deadline) {
        ::kill(child.pid, SIGKILL);
        child.killedForDeadline = true;
      }
    }

    // Reap any children that finished.
    for (auto it = running.begin(); it != running.end();) {
      int status = 0;
      const pid_t reaped = ::waitpid(it->pid, &status, WNOHANG);
      if (reaped == it->pid) {
        finish(*it, status);
        it = running.erase(it);
      } else {
        ++it;
      }
    }
  }

  return skipped;
}

}  // namespace riscmp::engine
