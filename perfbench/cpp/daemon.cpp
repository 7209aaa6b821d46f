// daemon_mixed: a closed loop of client threads against a real simd child
// with a private socket and an empty store. Most requests are grids primed
// into the store before timing (hits); a fixed share per round are
// fresh-scale grids that compile, simulate and write the store, each asked
// a second time so the store-served cells can be compared byte for byte;
// the rest are pings and stats. Each run ends with a shutdown request, and
// a non-zero daemon exit counts as a failed operation.
#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "engine/cell_codec.hpp"
#include "engine/service.hpp"
#include "support/json_lite.hpp"
#include "verify/injector.hpp"

extern char** environ;

namespace perfbench {

using namespace riscmp;

namespace {

/// Set-up daemons spawned before the measured daemon and after every round,
/// so that their median spans the same host conditions as the rounds.
constexpr int kSetupsBefore = 3;
constexpr int kSetupsBetween = 2;
constexpr std::size_t kMinRounds = 3;
/// Per-round composition (before each fresh grid's repeat is added). Fresh
/// grids are the slowest requests; at 16 of 116 they hold the 90th
/// percentile inside their own cluster rather than on its edge.
constexpr int kRoundHits = 72;
constexpr int kRoundFresh = 16;
constexpr int kRoundPings = 6;
constexpr int kRoundStats = 6;
/// The k-th fresh grid of a run runs STREAM at n = kFreshBase + k elements
/// (scale = n / 25000, STREAM's full-scale n): unique within the run, so
/// it misses the compile cache and the store, and nearly the same cost for
/// every k, so cold latency does not depend on the seed.
constexpr std::uint64_t kFreshBase = 2000;
constexpr double kReadySeconds = 30.0;
constexpr double kShutdownSeconds = 30.0;

std::string requestLine(const char* type) {
  support::JsonValue doc = support::JsonValue::object();
  doc.set("type", support::JsonValue(type));
  return doc.dump();
}

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

std::uint64_t instructionsOf(const std::string& reply, std::string& error) {
  std::uint64_t total = 0;
  const support::JsonValue doc = support::JsonValue::parse(reply);
  for (const support::JsonValue& item : doc.at("cells").items()) {
    const engine::CellResult cell = engine::decodeCell(item);
    if (!cell.cell.ok) error = cell.cell.name + ": " + cell.cell.summary;
    total += cell.instructions;
  }
  return total;
}

/// Send one request and check its reply; `reference` is the expected cells
/// section for hits and repeats.
Outcome execute(const Daemon& daemon, Request::Kind kind,
                const std::string& line, const std::string& reference,
                std::string* cellsOut) {
  Outcome out;
  out.kind = kind;
  try {
    const Clock::time_point t0 = Clock::now();
    const std::string reply = daemon.request(line);
    out.latency = secondsSince(t0);
    switch (kind) {
      case Request::Kind::Ping:
        out.ok = contains(reply, "\"type\":\"pong\"");
        break;
      case Request::Kind::Stats:
        out.ok = contains(reply, "\"type\":\"stats\"");
        break;
      case Request::Kind::Hit:
      case Request::Kind::Repeat:
        out.ok = contains(reply, "\"ok\":true") && !reference.empty() &&
                 replyCells(reply) == reference;
        if (!out.ok) out.error = "store-served cells differ from reference";
        break;
      case Request::Kind::Fresh:
        out.ok = contains(reply, "\"ok\":true");
        out.instructions = instructionsOf(reply, out.error);
        out.ok = out.ok && out.error.empty();
        if (cellsOut != nullptr) *cellsOut = replyCells(reply);
        break;
    }
    if (!out.ok && out.error.empty()) out.error = "bad reply: " +
                                                  reply.substr(0, 200);
  } catch (const std::exception& ex) {
    out.ok = false;
    out.error = ex.what();
  }
  return out;
}

/// Kills the daemon if the measured loop outlives its deadline, so a
/// wedged daemon turns into failed requests instead of a hung benchmark.
class Watchdog {
 public:
  Watchdog(Daemon& daemon, double seconds)
      : thread_([this, &daemon, seconds] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            fired_ = true;
            daemon.kill();
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  [[nodiscard]] bool fired() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return fired_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  bool fired_ = false;
  std::thread thread_;
};

}  // namespace

std::vector<engine::GridSpec> primedSpecs() {
  std::vector<engine::GridSpec> specs;
  engine::GridSpec paper = paperGridSpec();
  paper.scale = 0.05;
  specs.push_back(paper);
  engine::GridSpec ext = extGridSpec();
  ext.scale = 0.05;
  specs.push_back(ext);
  engine::GridSpec pathLength;  // fig1: path lengths only, no models
  pathLength.scale = 0.1;
  pathLength.analyses = engine::kPathLength;
  specs.push_back(pathLength);
  engine::GridSpec throughput;  // E12: scaled CP + throughput bound
  throughput.scale = 0.05;
  throughput.analyses = engine::kScaledCP | engine::kThroughputBound;
  throughput.modelA64 = "tx2";
  throughput.modelRv64 = "riscv-tx2";
  throughput.requireModels = true;
  specs.push_back(throughput);
  return specs;
}

engine::GridSpec freshSpec(std::uint64_t k) {
  engine::GridSpec spec;
  spec.scale = static_cast<double>(kFreshBase + k) / 25000.0;
  spec.workloads = {"STREAM"};
  spec.analyses =
      engine::kPathLength | engine::kCriticalPath | engine::kScaledCP;
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  return spec;
}

std::string gridRequest(const engine::GridSpec& spec) {
  support::JsonValue doc = support::JsonValue::object();
  doc.set("type", support::JsonValue("grid"));
  doc.set("spec", engine::gridSpecToJson(spec));
  return doc.dump();
}

std::vector<Request> buildRound(std::uint64_t seed, std::uint64_t round) {
  const std::size_t primed = primedSpecs().size();
  std::vector<Request> requests;
  for (int i = 0; i < kRoundHits; ++i) {
    Request hit;
    hit.kind = Request::Kind::Hit;
    hit.primed = static_cast<std::size_t>(i) % primed;
    hit.line = gridRequest(primedSpecs()[hit.primed]);
    requests.push_back(std::move(hit));
  }
  for (int i = 0; i < kRoundFresh; ++i) {
    Request fresh;
    fresh.kind = Request::Kind::Fresh;
    fresh.line = gridRequest(
        freshSpec(round * kRoundFresh + static_cast<std::uint64_t>(i)));
    requests.push_back(std::move(fresh));
  }
  for (int i = 0; i < kRoundPings; ++i) {
    requests.push_back({Request::Kind::Ping, requestLine("ping"), 0});
  }
  for (int i = 0; i < kRoundStats; ++i) {
    requests.push_back({Request::Kind::Stats, requestLine("stats"), 0});
  }
  // Fisher-Yates with the repo's SplitMix64: same seed, same order.
  verify::SplitMix64 rng(seed * 0x100000001b3ull + round);
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.below(i)]);
  }
  return requests;
}

Daemon::Daemon(const Args& args, const std::string& tag, unsigned jobs) {
  dir_ = args.workDir + "/" + tag + "-" + std::to_string(getpid());
  std::filesystem::remove_all(dir_);
  std::filesystem::create_directories(dir_);
  socket_ = dir_ + "/s.sock";
  const std::string log = dir_ + "/simd.log";

  std::vector<std::string> argv = {args.simd, "--socket=" + socket_,
                                    "--store=" + dir_ + "/store",
                                    "--jobs=" + std::to_string(jobs)};
  std::vector<char*> cargv;
  for (std::string& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  spawned_ = Clock::now();
  const int rc = posix_spawn(&pid_, args.simd.c_str(), &actions, nullptr,
                             cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + args.simd);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

double Daemon::waitReady() {
  const std::string ping = requestLine("ping");
  for (;;) {
    try {
      if (contains(request(ping), "\"type\":\"pong\"")) {
        return secondsSince(spawned_);
      }
    } catch (const std::exception&) {
      // Not listening yet.
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("simd exited before answering a ping");
    }
    if (secondsSince(spawned_) > kReadySeconds) {
      throw std::runtime_error("simd did not answer a ping in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::string Daemon::request(const std::string& line) const {
  return engine::requestOverSocket(socket_, line);
}

int Daemon::shutdown() {
  if (pid_ <= 0) return -1;
  try {
    (void)request(requestLine("shutdown"));
  } catch (const std::exception&) {
    // Reaped below either way; a daemon that cannot answer fails there.
  }
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (secondsSince(t0) > kShutdownSeconds) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void Daemon::kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

std::string replyCells(const std::string& reply) {
  const std::size_t begin = reply.find("\"cells\":[");
  if (begin == std::string::npos) return {};
  const std::size_t end = reply.find("],\"stats\":", begin);
  if (end == std::string::npos) return {};
  return reply.substr(begin, end + 1 - begin);
}

std::vector<Outcome> runRound(const Daemon& daemon,
                              const std::vector<Request>& round,
                              const std::vector<std::string>& primedCells,
                              unsigned clients) {
  std::vector<std::size_t> slot(round.size());
  std::size_t slots = 0;
  for (std::size_t i = 0; i < round.size(); ++i) {
    slot[i] = slots;
    slots += round[i].kind == Request::Kind::Fresh ? 2 : 1;
  }
  std::vector<Outcome> outcomes(slots);
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= round.size()) return;
      const Request& request = round[i];
      const std::string& reference =
          request.kind == Request::Kind::Hit ? primedCells[request.primed]
                                             : std::string();
      std::string cells;
      outcomes[slot[i]] =
          execute(daemon, request.kind, request.line, reference, &cells);
      if (request.kind == Request::Kind::Fresh) {
        outcomes[slot[i] + 1] = execute(daemon, Request::Kind::Repeat,
                                        request.line, cells, nullptr);
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) threads.emplace_back(client);
  for (std::thread& thread : threads) thread.join();
  return outcomes;
}

std::vector<std::string> primeDaemon(const Daemon& daemon,
                                     const std::string& goldenPath,
                                     Report& report) {
  const std::map<std::string, std::string> golden = loadGolden(goldenPath);
  const std::vector<engine::GridSpec> specs = primedSpecs();
  std::vector<std::string> cells;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    report.attempted += 1;
    std::string error;
    try {
      const std::string reply = daemon.request(gridRequest(specs[p]));
      const support::JsonValue doc = support::JsonValue::parse(reply);
      for (const support::JsonValue& item : doc.at("cells").items()) {
        const engine::CellResult cell = engine::decodeCell(item);
        const std::string name = "primed" + std::to_string(p) + ":" +
                                 cell.key.workload + "/" +
                                 engine::configName(cell.key.config);
        const auto expected = golden.find(name);
        if (expected == golden.end() ||
            expected->second != engine::digestHex(engine::cellDigest(cell))) {
          error = name + ": cellDigest differs from golden";
        }
      }
      cells.push_back(replyCells(reply));
      if (cells.back().empty()) error = "primed grid reply has no cells";
    } catch (const std::exception& ex) {
      error = ex.what();
      cells.emplace_back();
    }
    if (!error.empty()) report.fail("prime " + std::to_string(p) + ": " +
                                    error);
  }
  return cells;
}

unsigned daemonClients() { return 2; }

unsigned daemonJobs() {
  return static_cast<unsigned>(std::clamp(
      static_cast<int>(hostCores()) - static_cast<int>(daemonClients()), 1,
      2));
}

Report runDaemonWorkload(const Args& args) {
  Report report;
  const std::string golden = args.root + "/perfbench/golden/daemon_primed.txt";

  const HostSpeed speed;

  // Set-up: spawn until the first pong, on short-lived daemons of their own
  // and on the measured one.
  std::vector<double> setups;
  int spawned = 0;
  const auto setUp = [&](int times) {
    for (int k = 0; k < times; ++k) {
      Daemon probe(args, "setup" + std::to_string(spawned++), daemonJobs());
      setups.push_back(probe.waitReady());
      report.attempted += 1;
      if (const int code = probe.shutdown(); code != 0) {
        report.fail("set-up daemon exited with " + std::to_string(code));
      }
    }
  };
  setUp(kSetupsBefore);
  Daemon daemon(args, "main", daemonJobs());
  setups.push_back(daemon.waitReady());
  const std::vector<std::string> primed = primeDaemon(daemon, golden, report);

  std::vector<double> rounds;
  std::vector<double> latencies;
  std::vector<double> cold;
  std::uint64_t instructions = 0;
  double rss = 0.0;
  {
    Watchdog watchdog(daemon, args.seconds + 90.0);
    const Clock::time_point start = Clock::now();
    for (std::uint64_t r = 0;
         rounds.size() < kMinRounds ||
         anotherFits(start, args.seconds, rounds);
         ++r) {
      const std::vector<Request> round = buildRound(args.seed, r);
      const Clock::time_point t0 = Clock::now();
      const std::vector<Outcome> outcomes =
          runRound(daemon, round, primed, daemonClients());
      rounds.push_back(secondsSince(t0));
      for (const Outcome& outcome : outcomes) {
        report.attempted += 1;
        if (!outcome.ok) {
          report.fail(outcome.error);
          continue;
        }
        latencies.push_back(outcome.latency);
        instructions += outcome.instructions;
        if (outcome.kind == Request::Kind::Fresh) {
          cold.push_back(outcome.latency);
        }
      }
      // The shared compile cache keeps every fresh grid's kernels, so the
      // daemon grows with each round: read its peak after a fixed number
      // of rounds, not at a point that depends on host speed.
      if (rounds.size() == kMinRounds) rss = peakRssMb(daemon.pid());
      if (watchdog.fired()) break;
      setUp(kSetupsBetween);
    }
    if (watchdog.fired()) report.fail("daemon killed by the watchdog");
  }
  report.attempted += 1;
  if (const int code = daemon.shutdown(); code != 0) {
    report.fail("daemon exited with " + std::to_string(code));
  }

  report.add("setup_s", median(setups), "s");
  report.add("wall_s", median(rounds), "s");
  report.add("minst_per_s", static_cast<double>(instructions) / 1e6 /
                                sum(rounds),
             "Minst/s");
  report.add("peak_rss_mb", rss, "MiB");
  report.add("req_p50_ms", percentile(latencies, 50) * 1e3, "ms");
  report.add("req_p90_ms", percentile(latencies, 90) * 1e3, "ms");
  report.add("cold_grid_s", median(cold), "s");
  report.add("req_per_s", static_cast<double>(latencies.size()) / sum(rounds),
             "1/s");
  speed.correct(report);
  std::cerr << "perfbench: " << rounds.size() << " rounds, "
            << latencies.size() << " requests, " << cold.size()
            << " fresh grids, clients=" << daemonClients()
            << " daemon jobs=" << daemonJobs() << "\n";
  return report;
}

int emitDaemonGolden(const Args& args) {
  std::vector<std::pair<std::string, std::string>> rows;
  const std::vector<engine::GridSpec> specs = primedSpecs();
  for (std::size_t p = 0; p < specs.size(); ++p) {
    engine::EngineOptions base;
    base.jobs = workerThreads();
    const engine::ResolvedGrid resolved = engine::resolveGridSpec(specs[p],
                                                                  base);
    engine::ExperimentEngine eng(resolved.options);
    const engine::GridResult grid = eng.runGrid(resolved.suite,
                                                resolved.configs);
    for (const engine::CellResult& cell : grid.cells) {
      if (!cell.cell.ok) {
        std::cerr << "perfbench: primed cell failed: " << cell.cell.summary
                  << "\n";
        return 1;
      }
      rows.emplace_back("primed" + std::to_string(p) + ":" +
                            cell.key.workload + "/" +
                            engine::configName(cell.key.config),
                        engine::digestHex(engine::cellDigest(cell)));
    }
  }
  writeGolden(args.emitGolden, rows);
  return 0;
}

}  // namespace perfbench
