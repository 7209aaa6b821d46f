// daemon_mixed building blocks, shared by the untraced workload
// (daemon.cpp) and the traced profile (profile.cpp): the seeded request
// mix, a simd child process with a private socket and store, and the
// closed loop of client threads that drives it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Grid specs primed into the store before timing starts; seed-independent
/// so their cell digests can be golden (golden/daemon_primed.txt).
std::vector<riscmp::engine::GridSpec> primedSpecs();

/// The k-th fresh-scale spec of a run: STREAM alone at a scale no earlier
/// request of the run used, so it compiles, simulates and writes the store.
riscmp::engine::GridSpec freshSpec(std::uint64_t k);

std::string gridRequest(const riscmp::engine::GridSpec& spec);

struct Request {
  enum class Kind { Ping, Stats, Hit, Fresh, Repeat };
  Kind kind = Kind::Ping;
  std::string line;
  std::size_t primed = 0;  ///< index into primedSpecs() for Hit
};

/// Round `round` of the seeded mix: a fixed composition of hits on primed
/// specs, fresh-scale grids, pings and stats requests, shuffled by `seed`.
/// Each fresh grid is followed by a Repeat of the same line (a store hit
/// whose cells must be byte-identical to the simulated reply).
std::vector<Request> buildRound(std::uint64_t seed, std::uint64_t round);

/// A simd child serving a fresh socket and an empty store under its own
/// directory; killed and reaped on destruction if still running.
class Daemon {
 public:
  Daemon(const Args& args, const std::string& tag, unsigned jobs);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Ping until the first pong; returns seconds since spawn (or throws).
  double waitReady();
  std::string request(const std::string& line) const;
  /// Send shutdown and reap; the daemon's exit code, or -1 if it had to
  /// be killed.
  int shutdown();
  /// SIGKILL the daemon (watchdog path); a later shutdown() reaps it.
  void kill();
  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  std::string dir_;
  std::string socket_;
  pid_t pid_ = -1;
  Clock::time_point spawned_;
};

/// One request as the client saw it.
struct Outcome {
  Request::Kind kind = Request::Kind::Ping;
  double latency = 0.0;        ///< seconds, send to full reply
  bool ok = false;             ///< reply checked correct
  std::uint64_t instructions = 0;  ///< simulated by a fresh grid
  std::string error;
};

/// Cells section ("cells":[...]) of a grid reply; "" if absent.
std::string replyCells(const std::string& reply);

/// Drive one round with `clients` closed-loop client threads; outcomes are
/// in request order (each Fresh immediately followed by its Repeat).
/// `primedCells` holds each primed spec's reference cells section.
std::vector<Outcome> runRound(const Daemon& daemon,
                              const std::vector<Request>& round,
                              const std::vector<std::string>& primedCells,
                              unsigned clients);

/// Prime every primed spec through `daemon`, checking each simulated cell
/// against the golden digests; returns the reference cells sections.
std::vector<std::string> primeDaemon(const Daemon& daemon,
                                     const std::string& goldenPath,
                                     Report& report);

/// Client threads and daemon workers for daemon_mixed (sum <= cores).
unsigned daemonClients();
unsigned daemonJobs();

}  // namespace perfbench
