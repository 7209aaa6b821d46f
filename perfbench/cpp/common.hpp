// Shared plumbing for the perfbench program: arguments, the run report that
// becomes the final JSON line, timing and statistics helpers, and the
// workload entry points implemented in the other files of this directory.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/grid_spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double secondsSince(Clock::time_point from) {
  return secondsBetween(from, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 2026;
  double seconds = 30.0;
  bool trace = false;
  std::string root = ".";  ///< checkout root (configs/, tests/ golden files)
  std::string simd;        ///< daemon binary
  std::string workDir;     ///< working space for sockets and stores
  std::string emitGolden;  ///< write golden digests here instead of running
};

/// Everything one run reports: operations attempted and failed, plus
/// named metrics in the order they were added.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first failure descriptions
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Count `count` failed operations and remember why (first few only).
  void fail(const std::string& why, std::uint64_t count = 1);
  /// The final output line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string json() const;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);
double sum(const std::vector<double>& values);
/// True while one more operation as long as the median of `times` still
/// ends within `seconds` of `start`, so a run keeps close to its budget.
bool anotherFits(Clock::time_point start, double seconds,
                 const std::vector<double>& times);

/// Engine workers for the in-process workloads: one client thread plus
/// this many workers stays within the host's cores (2..nproc - 1 when the
/// host has at least three).
unsigned workerThreads();
unsigned hostCores();

/// Host-speed correction (README "Host-speed correction"). The shared hosts
/// this benchmark runs on slow down by up to 2x for minutes at a time, and
/// every host time moves with them. While a workload runs, a sampler thread
/// times a fixed reference kernel (this file's code; nothing in src/ can
/// change it) a few times a second; the run's times and rates are reported
/// at the reference speed, scaled by kReferenceNominalSeconds / the median
/// sample. The sampler stops and joins when the object is destroyed.
class HostSpeed {
 public:
  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Reference-speed seconds per measured second, from the samples so far.
  [[nodiscard]] double factor() const;
  /// Rescale every time (s, ms) and rate (.../s) metric of `report` by
  /// factor(); the measured values go to standard error.
  void correct(Report& report) const;

 private:
  void run();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

/// Peak resident set (VmHWM) of a live process, in MiB; 0 if unreadable.
double peakRssMb(pid_t pid);

std::string readFile(const std::string& path);

/// Golden cell digests, "<16 hex digest> <cell name>" per line.
std::map<std::string, std::string> loadGolden(const std::string& path);
void writeGolden(const std::string& path,
                 const std::vector<std::pair<std::string, std::string>>& rows);

/// The two report grids the grid workloads run (README "Workloads").
riscmp::engine::GridSpec paperGridSpec();
riscmp::engine::GridSpec extGridSpec();

Report runGridWorkload(const Args& args, const riscmp::engine::GridSpec& spec,
                       const std::string& goldenPath);
Report runOracleWorkload(const Args& args);
Report runDaemonWorkload(const Args& args);
/// The traced run: every per-layer metric (profile.cpp).
Report runTracedProfile(const Args& args);

/// Golden writers behind --emit-golden.
int emitGridGolden(const riscmp::engine::GridSpec& spec,
                   const std::string& path);
int emitDaemonGolden(const Args& args);

}  // namespace perfbench
