#include "engine/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ostream>
#include <utility>
#include <vector>

#include "engine/cell_codec.hpp"
#include "engine/grid_spec.hpp"
#include "engine/result_store.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"

namespace riscmp::engine {

SimService::SimService(ServiceOptions options) : options_(std::move(options)) {
  if (!options_.storeRoot.empty()) {
    store_ = std::make_shared<ResultStore>(options_.storeRoot);
  }
}

SimService::~SimService() = default;

std::string SimService::handleLine(const std::string& request) {
  totals_.requests += 1;
  const std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(request);
  if (!doc || doc->kind() != support::JsonValue::Kind::Object ||
      !doc->has("type")) {
    return error("malformed request (want a JSON object with a \"type\" "
                 "field)");
  }
  std::string type;
  try {
    type = doc->at("type").asString();
  } catch (const Fault&) {
    return error("malformed request: \"type\" must be a string");
  }
  if (type == "ping") {
    support::JsonValue pong = support::JsonValue::object();
    pong.set("type", support::JsonValue("pong"));
    pong.set("v", support::JsonValue(kGridSpecV));
    return pong.dump();
  }
  if (type == "stats") {
    support::JsonValue stats = support::JsonValue::object();
    stats.set("type", support::JsonValue("stats"));
    stats.set("requests", support::JsonValue(totals_.requests));
    stats.set("errors", support::JsonValue(totals_.errors));
    stats.set("grids", support::JsonValue(totals_.grids));
    stats.set("cells", support::JsonValue(totals_.cells));
    stats.set("store_hits", support::JsonValue(totals_.storeHits));
    stats.set("compiles", support::JsonValue(totals_.compiles));
    stats.set("compile_hits", support::JsonValue(totals_.compileHits));
    stats.set("simulations", support::JsonValue(totals_.simulations));
    // ResultStore effectiveness (ISSUE 10 satellite): lifetime counters
    // from the daemon's store, so sim_client --stats shows hit/miss/byte
    // traffic alongside the engine compile/sim counts. All zeros when
    // the daemon runs without --store.
    stats.set("store_misses",
              support::JsonValue(store_ ? store_->misses() : 0));
    stats.set("store_writes",
              support::JsonValue(store_ ? store_->writes() : 0));
    stats.set("store_corrupt",
              support::JsonValue(store_ ? store_->corrupt() : 0));
    stats.set("store_bytes_read",
              support::JsonValue(store_ ? store_->bytesRead() : 0));
    stats.set("store_bytes_written",
              support::JsonValue(store_ ? store_->bytesWritten() : 0));
    return stats.dump();
  }
  if (type == "shutdown") {
    shutdown_ = true;
    support::JsonValue ack = support::JsonValue::object();
    ack.set("type", support::JsonValue("shutdown"));
    ack.set("ok", support::JsonValue(true));
    return ack.dump();
  }
  if (type == "grid") return handleGrid(*doc);
  return error("unknown request type '" + type + "'");
}

std::string SimService::refuse(const std::string& message) {
  totals_.requests += 1;
  return error(message);
}

std::string SimService::error(const std::string& message) {
  totals_.errors += 1;
  support::JsonValue doc = support::JsonValue::object();
  doc.set("type", support::JsonValue("error"));
  doc.set("message", support::JsonValue(message));
  return doc.dump();
}

std::string SimService::handleGrid(const support::JsonValue& request) {
  try {
    const GridSpec spec = gridSpecFromJson(request.at("spec"));
    EngineOptions base;
    base.jobs = options_.jobs;
    base.resultStore = store_;
    const ResolvedGrid resolved = resolveGridSpec(spec, base);

    const std::uint64_t compilesBefore = cache_.compiles();
    const std::uint64_t hitsBefore = cache_.hits();
    ExperimentEngine engine(resolved.options, &cache_);
    const GridResult grid = engine.runGrid(resolved.suite, resolved.configs);
    const EngineStats stats = engine.stats();
    const std::uint64_t compiles = cache_.compiles() - compilesBefore;
    const std::uint64_t compileHits = cache_.hits() - hitsBefore;

    support::JsonValue cells = support::JsonValue::array();
    for (const CellResult& cell : grid.cells) cells.push(encodeCell(cell));

    support::JsonValue delta = support::JsonValue::object();
    delta.set("cells", support::JsonValue(
                           static_cast<std::uint64_t>(grid.cells.size())));
    delta.set("store_hits", support::JsonValue(stats.storeHits));
    delta.set("compiles", support::JsonValue(compiles));
    delta.set("compile_hits", support::JsonValue(compileHits));
    delta.set("simulations", support::JsonValue(stats.simulations));

    support::JsonValue doc = support::JsonValue::object();
    doc.set("type", support::JsonValue("grid"));
    doc.set("v", support::JsonValue(kGridSpecV));
    doc.set("ok", support::JsonValue(!grid.anyFailed()));
    doc.set("fingerprint", support::JsonValue(resolved.fingerprint));
    doc.set("workloads", support::JsonValue(
                             static_cast<std::uint64_t>(grid.workloadCount)));
    doc.set("configs", support::JsonValue(
                           static_cast<std::uint64_t>(grid.configCount)));
    doc.set("cells", std::move(cells));
    doc.set("stats", std::move(delta));

    totals_.grids += 1;
    totals_.cells += grid.cells.size();
    totals_.storeHits += stats.storeHits;
    totals_.compiles += compiles;
    totals_.compileHits += compileHits;
    totals_.simulations += stats.simulations;
    return doc.dump();
  } catch (const Fault& fault) {
    return error(fault.what());
  }
}

// ---------------------------------------------------------------------------
// Unix-domain socket transport.
// ---------------------------------------------------------------------------

namespace {

struct Conn {
  int fd = -1;
  std::string in;
  bool answered = false;  ///< `out` holds the reply; nothing more is read
  std::string out;
  std::size_t sent = 0;
};

enum class ReadResult { Pending, Line, TooLong, Closed };

/// Drain what the socket holds into conn.in, up to the first newline.
/// Only the bytes just read are searched, so a long line costs linear time.
ReadResult readSome(Conn& conn) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
    if (n > 0) {
      const auto* newline = static_cast<const char*>(
          std::memchr(buffer, '\n', static_cast<std::size_t>(n)));
      const std::size_t keep = newline != nullptr
                                   ? static_cast<std::size_t>(newline - buffer)
                                   : static_cast<std::size_t>(n);
      if (conn.in.size() + keep > kMaxRequestBytes) return ReadResult::TooLong;
      conn.in.append(buffer, keep);
      if (newline != nullptr) return ReadResult::Line;
      continue;
    }
    if (n == 0) return ReadResult::Closed;  // EOF before a complete line
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::Pending;
    if (errno == EINTR) continue;
    return ReadResult::Closed;
  }
}

/// Flush as much of conn.out as the socket accepts; false on hard error
/// (a peer that hung up gets EPIPE here, never SIGPIPE).
bool writeSome(Conn& conn) {
  while (conn.sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.sent,
                             conn.out.size() - conn.sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Read, answer and flush one connection; false once it is finished
/// (reply fully sent) or dead.
bool serviceConn(SimService& service, Conn& conn) {
  if (!conn.answered) {
    switch (readSome(conn)) {
      case ReadResult::Pending:
        return true;
      case ReadResult::Closed:
        return false;
      case ReadResult::Line:
        conn.out = service.handleLine(conn.in);
        break;
      case ReadResult::TooLong:
        conn.out = service.refuse("request line exceeds " +
                                  std::to_string(kMaxRequestBytes) +
                                  " bytes");
        break;
    }
    conn.out += '\n';
    conn.answered = true;
  }
  return writeSome(conn) && conn.sent < conn.out.size();
}

}  // namespace

int serveUnixSocket(SimService& service, const std::string& socketPath,
                    const volatile std::sig_atomic_t* stopFlag,
                    std::ostream& log) {
  sockaddr_un addr{};
  if (socketPath.size() >= sizeof(addr.sun_path)) {
    log << "simd: socket path too long (" << socketPath.size() << " > "
        << sizeof(addr.sun_path) - 1 << " bytes): " << socketPath << "\n";
    return 2;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    log << "simd: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  ::unlink(socketPath.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 64) != 0) {
    log << "simd: cannot listen on " << socketPath << ": "
        << std::strerror(errno) << "\n";
    ::close(listener);
    return 1;
  }
  setNonBlocking(listener);
  log << "simd: listening on " << socketPath << std::endl;

  std::vector<Conn> conns;
  for (;;) {
    // Draining: stop accepting, finish delivering the replies already made.
    const bool draining = (stopFlag != nullptr && *stopFlag != 0) ||
                          service.shutdownRequested();
    bool pendingWrites = false;
    std::vector<pollfd> fds;
    if (!draining) fds.push_back(pollfd{listener, POLLIN, 0});
    for (const Conn& conn : conns) {
      pendingWrites = pendingWrites || conn.answered;
      const short events = conn.answered ? POLLOUT : POLLIN;
      fds.push_back(pollfd{conn.fd, events, 0});
    }
    if (draining && !pendingWrites) break;

    if (::poll(fds.data(), fds.size(), 200) < 0 && errno != EINTR) {
      log << "simd: poll(): " << std::strerror(errno) << "\n";
      break;
    }

    // Existing connections in accept order, each answered the moment its
    // line is complete; then new connections join the back of the line.
    const std::size_t first = draining ? 0 : 1;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = conns[i];
      if (fds[first + i].revents != 0 && !serviceConn(service, conn)) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const Conn& c) { return c.fd < 0; }),
                conns.end());
    if (!draining && (fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) break;
        setNonBlocking(fd);
        Conn conn;
        conn.fd = fd;
        conns.push_back(std::move(conn));
      }
    }
  }

  for (const Conn& conn : conns) ::close(conn.fd);
  ::close(listener);
  ::unlink(socketPath.c_str());
  log << "simd: drained, shutting down" << std::endl;
  return 0;
}

std::string requestOverSocket(const std::string& socketPath,
                              const std::string& requestLine) {
  sockaddr_un addr{};
  if (socketPath.size() >= sizeof(addr.sun_path)) {
    throw ConfigError("socket path too long: " + socketPath);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw ConfigError(std::string("socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw ConfigError("cannot connect to " + socketPath + ": " + detail);
  }

  const std::string payload = requestLine + "\n";
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent,
                             payload.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw ConfigError("write to " + socketPath + " failed");
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string reply;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      throw ConfigError("read from " + socketPath + " failed");
    }
    if (n == 0) break;
    const auto* newline = static_cast<const char*>(
        std::memchr(buffer, '\n', static_cast<std::size_t>(n)));
    if (newline != nullptr) {
      reply.append(buffer, static_cast<std::size_t>(newline - buffer));
      ::close(fd);
      return reply;
    }
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (reply.empty()) {
    throw ConfigError("no response from " + socketPath +
                      " (daemon gone?)");
  }
  return reply;
}

}  // namespace riscmp::engine
