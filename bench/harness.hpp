// Shared flag parsing for the per-table/figure bench binaries.
//
// Simulation itself lives in the parallel experiment engine (src/engine,
// ISSUE 2): every workload × era × ISA cell is compiled at most once,
// simulated exactly once on a worker pool (--jobs=N), and all enabled
// analyses observe that single pass. The benches here are pure report
// generators over engine::CellResults; each cell still runs inside a
// verify::FaultBoundary so one failing cell prints its FaultReport and the
// run continues, and every simulated program runs under an instruction
// budget (--budget=N) so a codegen regression cannot hang CI.
#pragma once

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "engine/cell_codec.hpp"
#include "engine/engine.hpp"
#include "engine/grid_spec.hpp"
#include "engine/result_store.hpp"
#include "engine/service.hpp"
#include "support/atomic_file.hpp"
#include "support/json_lite.hpp"
#include "verify/boundary.hpp"
#include "workloads/workloads.hpp"

namespace riscmp::bench {

using engine::Config;
using engine::configName;
using engine::kDefaultInstructionBudget;
using engine::paperConfigs;

/// A malformed numeric flag is a usage error, not an engine fault: print a
/// one-line diagnostic and exit(2) instead of letting std::stod/stoull
/// terminate the process with an unclassified exception.
template <typename Parse>
auto parseFlagValue(const std::string& flag, const std::string& value,
                    Parse parse) {
  try {
    std::size_t consumed = 0;
    const auto parsed = parse(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    std::cerr << "error: invalid value for " << flag << ": '" << value
              << "'\n";
    std::exit(2);
  }
}

/// Value of the first argument starting with `prefix` (which includes
/// the '='), with the prefix stripped; nullopt when no argument has it.
inline std::optional<std::string> flagValue(int argc, char** argv,
                                            std::string_view prefix) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(prefix)) return std::string(arg.substr(prefix.size()));
  }
  return std::nullopt;
}

/// Number parsers for parseFlagValue.
inline double toDouble(const std::string& s, std::size_t* consumed) {
  return std::stod(s, consumed);
}
inline unsigned long toUnsigned(const std::string& s, std::size_t* consumed) {
  return std::stoul(s, consumed);
}

/// Parse a "--scale=<x>" argument (defaults to 1.0). Zero, negative, and
/// non-finite scales produce degenerate or empty workloads whose ratios are
/// nonsense, so they take the same exit-2 usage-error path as a malformed
/// number.
inline double parseScale(int argc, char** argv) {
  const std::optional<std::string> value = flagValue(argc, argv, "--scale=");
  if (!value) return 1.0;
  const double scale = parseFlagValue("--scale", *value, toDouble);
  if (!std::isfinite(scale) || scale <= 0.0) {
    std::cerr << "error: --scale must be a positive number, got '" << *value
              << "'\n";
    std::exit(2);
  }
  return scale;
}

/// Parse a "--jobs=<n>" argument: engine worker threads. Defaults to 0,
/// which the engine resolves to hardware_concurrency; an explicit 0 is a
/// usage error (a pool of zero workers can run nothing).
inline unsigned parseJobs(int argc, char** argv) {
  const std::optional<std::string> value = flagValue(argc, argv, "--jobs=");
  if (!value) return 0;
  const unsigned long jobs = parseFlagValue("--jobs", *value, toUnsigned);
  if (jobs == 0) {
    std::cerr << "error: --jobs must be a positive worker count\n";
    std::exit(2);
  }
  return static_cast<unsigned>(jobs);
}

/// Parse a "--budget=<n>" argument: per-cell instruction budget
/// (0 = unlimited; defaults to kDefaultInstructionBudget).
inline std::uint64_t parseBudget(int argc, char** argv) {
  const std::optional<std::string> value = flagValue(argc, argv, "--budget=");
  if (!value) return kDefaultInstructionBudget;
  return parseFlagValue("--budget", *value,
                        [](const std::string& s, std::size_t* consumed) {
                          return std::stoull(s, consumed);
                        });
}

/// Parse a "--config-dir=<path>" argument: directory core-model YAML files
/// are loaded from (defaults to the repository configs/ directory). Lets a
/// run point at alternate or deliberately broken models.
inline std::string parseConfigDir(int argc, char** argv,
                                  const std::string& fallback) {
  return flagValue(argc, argv, "--config-dir=").value_or(fallback);
}

/// Parse "--deadline=<seconds>": per-cell wall-clock deadline (fractional
/// seconds allowed; 0/absent = none). Negative or non-finite deadlines are
/// usage errors.
inline double parseDeadline(int argc, char** argv) {
  const std::optional<std::string> value =
      flagValue(argc, argv, "--deadline=");
  if (!value) return 0.0;
  const double seconds = parseFlagValue("--deadline", *value, toDouble);
  if (!std::isfinite(seconds) || seconds < 0.0) {
    std::cerr << "error: --deadline must be a non-negative number of "
                 "seconds, got '"
              << *value << "'\n";
    std::exit(2);
  }
  return seconds;
}

/// Parse "--retries=<n>": extra attempts for transient cell failures
/// (timeouts; worker crashes under --isolate=process). Defaults to 0.
inline unsigned parseRetries(int argc, char** argv) {
  const std::optional<std::string> value = flagValue(argc, argv, "--retries=");
  if (!value) return 0;
  return static_cast<unsigned>(
      parseFlagValue("--retries", *value, toUnsigned));
}

/// Parse "--retry-backoff-ms=<n>": retry backoff base (doubles per
/// attempt, plus seeded jitter). Defaults to 100; 0 disables the wait,
/// which the crash-recovery tests use to keep retries fast.
inline unsigned parseRetryBackoffMs(int argc, char** argv) {
  const std::optional<std::string> value =
      flagValue(argc, argv, "--retry-backoff-ms=");
  if (!value) return 100;
  return static_cast<unsigned>(
      parseFlagValue("--retry-backoff-ms", *value, toUnsigned));
}

/// Parse "--isolate=<thread|process>": where cells execute. Thread is the
/// default; process forks one worker subprocess per cell so crashes and
/// hangs are contained as CrashFault/TimeoutFault records.
inline engine::IsolationMode parseIsolate(int argc, char** argv) {
  const std::string mode =
      flagValue(argc, argv, "--isolate=").value_or("thread");
  if (mode == "thread") return engine::IsolationMode::Thread;
  if (mode == "process") return engine::IsolationMode::Process;
  std::cerr << "error: --isolate must be 'thread' or 'process', got '"
            << mode << "'\n";
  std::exit(2);
}

/// Parse a "<flag>=<path>" argument such as "--store=<dir>" (empty when
/// absent). An empty path after '=' is a usage error — it would silently
/// disable what the caller asked for.
inline std::string parsePathFlag(int argc, char** argv,
                                 const std::string& flag) {
  const std::optional<std::string> path = flagValue(argc, argv, flag + "=");
  if (path && path->empty()) {
    std::cerr << "error: " << flag << " needs a file path\n";
    std::exit(2);
  }
  return path.value_or("");
}

/// Parse the bare "--fail-fast" switch. "--fail-fast=<x>" is a usage
/// error — it takes no value.
inline bool parseFailFast(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fail-fast") return true;
    if (arg.rfind("--fail-fast=", 0) == 0) {
      std::cerr << "error: --fail-fast takes no value\n";
      std::exit(2);
    }
  }
  return false;
}

/// Test/CI hook: "--inject-fault=<substr>:<segv|abort|hang|kill>" makes
/// every cell whose name contains <substr> misbehave before compilation —
/// inside the cell's fault boundary, and (because EngineOptions::cellSetup
/// is inherited across fork) inside process-isolated workers too. This is
/// how the crash-recovery tests produce a real SIGSEGV/SIGKILL/hang in an
/// otherwise stock bench binary.
inline void applyFaultInjection(int argc, char** argv,
                                engine::EngineOptions& options) {
  const std::optional<std::string> value =
      flagValue(argc, argv, "--inject-fault=");
  if (!value) return;
  const std::string& spec = *value;
  const std::size_t colon = spec.rfind(':');
  const std::string substr =
      colon == std::string::npos ? "" : spec.substr(0, colon);
  const std::string mode =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (substr.empty() || (mode != "segv" && mode != "abort" &&
                         mode != "hang" && mode != "kill")) {
    std::cerr << "error: --inject-fault needs "
                 "<substr>:<segv|abort|hang|kill>, got '"
              << spec << "'\n";
    std::exit(2);
  }
  options.cellSetup = [substr, mode](const engine::CellKey& key) {
    const std::string name =
        key.workload + "/" + engine::configName(key.config);
    if (name.find(substr) == std::string::npos) return;
    if (mode == "segv") {
      volatile int* p = nullptr;
      *p = 1;  // NOLINT: deliberate SIGSEGV under test
    } else if (mode == "abort") {
      std::abort();
    } else if (mode == "kill") {
      std::raise(SIGKILL);
    } else {  // hang: wedge outside the simulator loop, where only the
              // process-isolation deadline can reach it
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  };
}

/// Table mark for a failed grid cell: "✗(CrashFault)", "✗(skipped)", ...
/// The kind in parentheses is the fault taxonomy's stable string form.
inline std::string failedCellMark(const engine::CellResult& cell) {
  return "✗(" + (cell.cell.kind.empty() ? std::string("failed")
                                        : cell.cell.kind) +
         ")";
}

/// Footer for partial reports: one line per failed cell, after the tables
/// so a reader sees immediately which numbers are missing and why. Prints
/// nothing when every cell completed.
inline void printFailureFooter(const engine::GridResult& grid,
                               std::ostream& out) {
  if (!grid.anyFailed()) return;
  std::size_t failed = 0;
  for (const engine::CellResult& cell : grid.cells) {
    if (!cell.cell.ok) ++failed;
  }
  out << "PARTIAL REPORT: " << failed << "/" << grid.cells.size()
      << " cells failed; their rows are marked ✗(<fault>).\n";
  for (const engine::CellResult& cell : grid.cells) {
    if (cell.cell.ok) continue;
    out << "  ✗ " << cell.key.workload << "/" << configName(cell.key.config)
        << " — " << (cell.cell.kind.empty() ? "failed" : cell.cell.kind)
        << ": " << cell.cell.summary << "\n";
  }
  out << "\n";
}

/// Baseline EngineOptions shared by every engine bench: --jobs and
/// --budget, the only flags ExperimentEngine::runJobs honours.
inline engine::EngineOptions engineOptions(int argc, char** argv) {
  engine::EngineOptions options;
  options.jobs = parseJobs(argc, argv);
  options.budget = parseBudget(argc, argv);
  return options;
}

/// engineOptions plus the runGrid resilience flags (--deadline /
/// --retries / --retry-backoff-ms / --isolate / --fail-fast /
/// --inject-fault).
inline engine::EngineOptions gridEngineOptions(int argc, char** argv) {
  engine::EngineOptions options = engineOptions(argc, argv);
  options.deadlineSeconds = parseDeadline(argc, argv);
  options.retries = parseRetries(argc, argv);
  options.retryBackoffMs = parseRetryBackoffMs(argc, argv);
  options.isolate = parseIsolate(argc, argv);
  options.failFast = parseFailFast(argc, argv);
  applyFaultInjection(argc, argv, options);
  return options;
}

/// Parse "--via=local|socket:<path>": where grid cells execute. Empty
/// string = local (the default); otherwise the simd daemon's socket path.
inline std::string parseVia(int argc, char** argv) {
  const std::optional<std::string> value = flagValue(argc, argv, "--via=");
  if (!value || *value == "local") return {};
  if (value->rfind("socket:", 0) == 0 && value->size() > 7) {
    return value->substr(7);
  }
  std::cerr << "error: --via must be 'local' or 'socket:<path>', got '"
            << *value << "'\n";
  std::exit(2);
}

/// Shared "--json[=PATH]" parser (previously copied into every artifact
/// bench): bare --json selects the bench's conventional default path.
inline std::optional<std::string> parseJsonPath(int argc, char** argv,
                                                const std::string&
                                                    defaultPath) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") return defaultPath;
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return std::nullopt;
}

/// Shared artifact writer: stage-and-rename so a killed run never leaves a
/// truncated file, with the benches' established error/echo lines. Returns
/// false after printing the error (callers exit 2).
inline bool writeJsonArtifact(const std::string& path,
                              const std::string& content) {
  std::string writeError;
  if (!support::writeFileAtomic(path, content, &writeError)) {
    std::cerr << "error: cannot write " << path << ": " << writeError
              << "\n";
    return false;
  }
  std::cout << "JSON written to " << path << "\n";
  return true;
}

/// Reject any "--*" argument outside `known` with an exit-2 usage error (a
/// typo'd flag must not silently run the default experiment). Entries
/// ending in '=' are value-flag prefixes, others match exactly. Call this
/// AFTER the specific parsers so their more precise diagnostics (e.g.
/// "--fail-fast takes no value") win.
inline void requireKnownFlagsExact(int argc, char** argv,
                                   const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    bool matched = false;
    for (const std::string& flag : known) {
      if (!flag.empty() && flag.back() == '='
              ? arg.rfind(flag, 0) == 0
              : arg == flag) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      std::exit(2);
    }
  }
}

/// requireKnownFlagsExact with the flags every grid/job bench accepts
/// (the engineOptions set) appended to `known`.
inline void requireKnownFlags(int argc, char** argv,
                              std::vector<std::string> known) {
  known.emplace_back("--jobs=");
  known.emplace_back("--budget=");
  requireKnownFlagsExact(argc, argv, known);
}

/// One executed grid, however it was executed: the cells plus the footer
/// line the bench prints last ("engine: ..." locally, "service: ..." when
/// a daemon ran the cells). Everything between header and footer renders
/// from the cells alone, which is what makes the two modes byte-identical
/// up to that final line.
struct GridRun {
  engine::GridResult grid;
  std::string footer;
  bool viaSocket = false;
};

/// Execute `spec` per the command line: locally (default, honoring every
/// engine execution flag plus an optional --store=DIR read/write-through
/// result store; rerunning a crashed grid with the same --store recomputes
/// only the cells that did not finish) or via a simd daemon
/// ("--via=socket:<path>", which owns execution policy and store).
/// `benchFlags` lists the bench's own extra flags for the unknown-flag
/// audit; the grid-only and engine-common sets are included automatically.
inline GridRun runGridSpec(engine::GridSpec spec, int argc, char** argv,
                           std::vector<std::string> benchFlags = {}) {
  engine::EngineOptions base = gridEngineOptions(argc, argv);
  // --budget is part of every cell's identity (it caps the simulated
  // stream), so it must travel inside the spec the daemon fingerprints,
  // not just in the local EngineOptions.
  spec.budget = parseBudget(argc, argv);
  const std::string socketPath = parseVia(argc, argv);
  const std::string storeRoot = parsePathFlag(argc, argv, "--store");
  // Flags only runGrid honours: accepted here, while the runJobs benches
  // reject them as unknown rather than silently ignore them.
  for (const char* flag :
       {"--deadline=", "--retries=", "--retry-backoff-ms=", "--isolate=",
        "--fail-fast", "--inject-fault=", "--via=", "--store="}) {
    benchFlags.emplace_back(flag);
  }
  requireKnownFlags(argc, argv, std::move(benchFlags));

  GridRun run;
  if (socketPath.empty()) {
    engine::ResolvedGrid resolved = engine::resolveGridSpec(spec, base);
    if (!storeRoot.empty()) {
      resolved.options.resultStore =
          std::make_shared<engine::ResultStore>(storeRoot);
    }
    engine::ExperimentEngine eng(resolved.options);
    run.grid = eng.runGrid(resolved.suite, resolved.configs);
    run.footer = engine::describe(eng.stats());
    return run;
  }

  run.viaSocket = true;
  support::JsonValue request = support::JsonValue::object();
  request.set("type", support::JsonValue("grid"));
  request.set("spec", engine::gridSpecToJson(spec));
  std::string reply;
  try {
    reply = engine::requestOverSocket(socketPath, request.dump());
  } catch (const Fault& fault) {
    std::cerr << "error: " << fault.what() << "\n";
    std::exit(2);
  }
  const std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(reply);
  if (!doc) {
    std::cerr << "error: malformed simd reply\n";
    std::exit(2);
  }
  try {
    const std::string type = doc->at("type").asString();
    if (type == "error") {
      std::cerr << "error: simd: " << doc->at("message").asString() << "\n";
      std::exit(2);
    }
    if (type != "grid" || doc->at("v").asUint() != engine::kGridSpecV) {
      std::cerr << "error: unexpected simd reply type '" << type << "'\n";
      std::exit(2);
    }
    run.grid.workloadCount = doc->at("workloads").asUint();
    run.grid.configCount = doc->at("configs").asUint();
    const auto& cells = doc->at("cells").items();
    if (cells.size() != run.grid.workloadCount * run.grid.configCount) {
      std::cerr << "error: simd reply cell count mismatch\n";
      std::exit(2);
    }
    run.grid.cells.reserve(cells.size());
    for (const support::JsonValue& cell : cells) {
      run.grid.cells.push_back(engine::decodeCell(cell));
    }
    const support::JsonValue& stats = doc->at("stats");
    std::ostringstream footer;
    footer << "service: " << stats.at("cells").asUint() << " cells ("
           << stats.at("store_hits").asUint() << " store hits), "
           << stats.at("compiles").asUint() << " compiles (+"
           << stats.at("compile_hits").asUint() << " cached), "
           << stats.at("simulations").asUint() << " simulations";
    run.footer = footer.str();
  } catch (const Fault& fault) {
    std::cerr << "error: malformed simd reply: " << fault.what() << "\n";
    std::exit(2);
  }
  return run;
}

}  // namespace riscmp::bench
