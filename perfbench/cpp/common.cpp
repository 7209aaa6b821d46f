#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "support/json_lite.hpp"

namespace perfbench {

void Report::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  if (problems.size() < 8) problems.push_back(why);
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);
    out << (first ? "" : ", ") << "\"" << riscmp::support::jsonEscape(name)
        << "\": {\"value\": " << value << ", \"unit\": \""
        << riscmp::support::jsonEscape(metric.second) << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

bool anotherFits(Clock::time_point start, double seconds,
                 const std::vector<double>& times) {
  return secondsSince(start) + median(times) < seconds;
}

unsigned hostCores() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores == 0 ? 1 : cores;
}

unsigned workerThreads() {
  // One client thread plus at most two workers leaves a core free: on a
  // shared 4-vCPU host, grid walls with two workers spread about half as
  // much run to run as with three. The cap also keeps the measured grid
  // shape the same on larger hosts.
  return static_cast<unsigned>(
      std::clamp(static_cast<int>(hostCores()) - 2, 1, 2));
}

namespace {

/// The reference kernel's length, its median time on the host the benchmark
/// was tuned on (Xeon, 4 vCPUs under KVM), and the sampler's pause between
/// runs of it (about a quarter of one core).
constexpr std::uint64_t kReferenceSteps = 4'000'000;
constexpr double kReferenceNominalSeconds = 0.0125;
constexpr auto kSamplePause = std::chrono::milliseconds(30);

std::atomic<std::uint64_t> gReferenceSink{0};

/// Eight interleaved multiply/shift/xor chains: enough independent work to
/// keep the core's integer ports busy, so the kernel slows down when a
/// co-runner contends for the core, as the simulator does, and touches no
/// memory beyond its registers.
double referenceSeconds() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t a = gReferenceSink.load(std::memory_order_relaxed) | 1;
  std::uint64_t b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (std::uint64_t i = 0; i < kReferenceSteps; ++i) {
    a = a * 3 + b;
    b ^= c + (a >> 3);
    c = c * 5 + d;
    d ^= e + (c >> 5);
    e = e * 7 + f;
    f ^= g + (e >> 7);
    g = g * 9 + h;
    h ^= a + (g >> 2);
  }
  gReferenceSink.fetch_add(a + b + c + d + e + f + g + h,
                           std::memory_order_relaxed);
  return secondsSince(t0);
}

}  // namespace

HostSpeed::HostSpeed() : thread_([this] { run(); }) {}

HostSpeed::~HostSpeed() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
}

void HostSpeed::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    const double seconds = referenceSeconds();
    lock.lock();
    samples_.push_back(seconds);
    wake_.wait_for(lock, kSamplePause, [this] { return stop_; });
  }
}

double HostSpeed::factor() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return samples_.empty() ? 1.0
                          : kReferenceNominalSeconds / median(samples_);
}

void HostSpeed::correct(Report& report) const {
  const double f = factor();
  std::size_t count = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    count = samples_.size();
  }
  std::cerr << "perfbench: host-speed factor " << f << " from " << count
            << " reference samples; measured:";
  for (auto& [name, metric] : report.metrics) {
    auto& [value, unit] = metric;
    std::cerr << " " << name << "=" << value;
    if (unit == "s" || unit == "ms") {
      value *= f;
    } else if (unit.size() > 2 && unit.ends_with("/s")) {
      value /= f;
    }
  }
  std::cerr << "\n";
}

double peakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::map<std::string, std::string> loadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::istringstream lines(readFile(path));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) {
      throw std::runtime_error("malformed golden line in " + path);
    }
    golden[line.substr(space + 1)] = line.substr(0, space);
  }
  return golden;
}

void writeGolden(const std::string& path,
                 const std::vector<std::pair<std::string, std::string>>& rows) {
  std::ofstream out(path, std::ios::binary);
  out << "# cellDigest per cell; regenerate only for an intended change\n"
         "# of simulated results (README \"Golden digests\").\n";
  for (const auto& [name, digest] : rows) out << digest << " " << name << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
