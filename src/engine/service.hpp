// Simulation-as-a-service daemon core (ISSUE 9, layer 3).
//
// The `simd` daemon keeps one process alive across many grid requests so
// the two memoization layers below it actually amortize: a shared
// CompileCache (kernels compile once per daemon lifetime, not once per
// bench invocation) and an optional shared ResultStore (cells simulate
// once per store lifetime, across daemons and local runs alike). The
// service core here is transport-free and unit-testable: handleLine()
// maps one request line to one response line; serveUnixSocket() is the
// thin poll(2) loop that feeds it from a Unix-domain stream socket.
//
// Protocol: line-delimited JSON (json_lite), one request per connection,
// one response line back. Requests:
//   {"type":"ping"}                     -> {"type":"pong","v":1}
//   {"type":"stats"}                    -> {"type":"stats", ...totals}
//   {"type":"shutdown"}                 -> {"type":"shutdown","ok":true},
//                                          then the daemon drains and exits
//   {"type":"grid","spec":{GridSpec}}   -> {"type":"grid","ok":...,
//                                           "cells":[cell_codec...],
//                                           "stats":{request deltas}}
// Anything else (or malformed JSON, or a spec that fails to resolve, or a
// line longer than kMaxRequestBytes) gets {"type":"error","message":...};
// the daemon never dies on bad input.
//
// Each request is answered as soon as its line is complete, in connection
// order. The result store is the one mechanism that skips computed work:
// with --store, identical concurrent grids simulate each cell at most
// once (the first writes the store, the rest are store hits); without it
// only the compile cache is shared.
#pragma once

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "engine/compile_cache.hpp"
#include "engine/engine.hpp"

namespace riscmp::support {
class JsonValue;
}

namespace riscmp::engine {

class ResultStore;

/// Longest request line the socket transport buffers; a grid spec is
/// about 0.5 KB.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

struct ServiceOptions {
  /// Worker threads per grid run (0 = hardware concurrency).
  unsigned jobs = 0;
  /// Result-store root directory; empty = no persistent store (the shared
  /// compile cache still memoizes within the daemon's lifetime).
  std::string storeRoot;
};

/// Lifetime totals, served by the "stats" request.
struct ServiceTotals {
  std::uint64_t requests = 0;     ///< lines handled, of any type
  std::uint64_t errors = 0;       ///< error responses produced
  std::uint64_t grids = 0;        ///< grids run
  std::uint64_t cells = 0;        ///< cells served across all grid responses
  std::uint64_t storeHits = 0;    ///< cells served from the result store
  std::uint64_t compiles = 0;     ///< shared-cache compile invocations
  std::uint64_t compileHits = 0;  ///< shared-cache hits
  std::uint64_t simulations = 0;  ///< Machine::run invocations
};

class SimService {
 public:
  explicit SimService(ServiceOptions options);
  ~SimService();

  /// Map one request line to its response line (no trailing newline on
  /// either side).
  std::string handleLine(const std::string& request);

  /// Answer a request the transport refused to read (a line over
  /// kMaxRequestBytes): an error reply, counted as a request and an error.
  std::string refuse(const std::string& message);

  [[nodiscard]] const ServiceTotals& totals() const { return totals_; }
  /// Set once a "shutdown" request has been answered; the transport loop
  /// drains and exits when it sees this.
  [[nodiscard]] bool shutdownRequested() const { return shutdown_; }

 private:
  std::string handleGrid(const support::JsonValue& request);
  std::string error(const std::string& message);

  ServiceOptions options_;
  CompileCache cache_;
  std::shared_ptr<ResultStore> store_;
  ServiceTotals totals_;
  bool shutdown_ = false;
};

/// Serve `service` on a Unix-domain stream socket at `socketPath` until a
/// shutdown request arrives or `*stopFlag` becomes nonzero (SIGTERM/SIGINT
/// handlers set it; graceful drain: replies already produced are still
/// delivered). Each connection's request is answered as soon as its line
/// is complete. Prints "simd: listening on <path>" to `log` once ready.
/// Returns a process exit code; the socket file is unlinked on the way out.
int serveUnixSocket(SimService& service, const std::string& socketPath,
                    const volatile std::sig_atomic_t* stopFlag,
                    std::ostream& log);

/// Client side: connect to `socketPath`, send `requestLine` (newline
/// appended), and return the single response line. Throws ConfigError on
/// connect/IO failure — callers turn that into their own usage errors.
std::string requestOverSocket(const std::string& socketPath,
                              const std::string& requestLine);

}  // namespace riscmp::engine
