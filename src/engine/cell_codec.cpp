#include "engine/cell_codec.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <utility>

#include "support/fault.hpp"

namespace riscmp::engine {

using support::JsonValue;

namespace {

/// Writes each visited field into a JSON object, in visit order.
class Encoder {
 public:
  explicit Encoder(JsonValue& out) : out_(out) {}

  template <class T>
  void num(const char* name, const T& value) {
    out_.set(name, JsonValue(static_cast<std::uint64_t>(value)));
  }
  void real(const char* name, double value) {
    num(name, std::bit_cast<std::uint64_t>(value));
  }
  void str(const char* name, const std::string& value) {
    out_.set(name, JsonValue(value));
  }
  bool flag(const char* name, bool value) {
    out_.set(name, JsonValue(value));
    return value;
  }
  /// Whether an optional field is written: only when the value has one.
  bool present(const char* /*name*/, bool hasValue) { return hasValue; }

  template <class Visit>
  void object(const char* name, Visit&& visit) {
    JsonValue child = JsonValue::object();
    Encoder sub(child);
    visit(sub);
    out_.set(name, std::move(child));
  }
  template <class Seq>
  void uints(const char* name, const Seq& values) {
    JsonValue array = JsonValue::array();
    for (const auto value : values) {
      array.push(JsonValue(static_cast<std::uint64_t>(value)));
    }
    out_.set(name, std::move(array));
  }
  template <class T, class Visit>
  void list(const char* name, const std::vector<T>& items, Visit&& visit) {
    JsonValue array = JsonValue::array();
    for (const T& item : items) {
      JsonValue child = JsonValue::object();
      Encoder sub(child);
      visit(sub, item);
      array.push(std::move(child));
    }
    out_.set(name, std::move(array));
  }

 private:
  JsonValue& out_;
};

/// Reads each visited field back from a JSON object. Missing or mistyped
/// fields throw ConfigError (JsonValue's typed accessors).
class Decoder {
 public:
  explicit Decoder(const JsonValue& in) : in_(in) {}

  template <class T>
  void num(const char* name, T& value) {
    value = static_cast<T>(in_.at(name).asUint());
  }
  void real(const char* name, double& value) {
    value = std::bit_cast<double>(in_.at(name).asUint());
  }
  void str(const char* name, std::string& value) {
    value = in_.at(name).asString();
  }
  bool flag(const char* name, bool& value) {
    value = in_.at(name).asBool();
    return value;
  }
  bool present(const char* name, bool /*hasValue*/) { return in_.has(name); }

  template <class Visit>
  void object(const char* name, Visit&& visit) {
    Decoder sub(in_.at(name));
    visit(sub);
  }
  template <class T>
  void uints(const char* name, std::vector<T>& values) {
    for (const JsonValue& item : in_.at(name).items()) {
      values.push_back(static_cast<T>(item.asUint()));
    }
  }
  /// Fixed-size arrays (instruction groups, fusion rules) must match the
  /// decoding build's count; the input may come from another process.
  template <class T, std::size_t N>
  void uints(const char* name, std::array<T, N>& values) {
    const auto& items = in_.at(name).items();
    if (items.size() != N) {
      throw ConfigError(std::string("cell codec: ") + name +
                        " count mismatch");
    }
    for (std::size_t i = 0; i < N; ++i) {
      values[i] = static_cast<T>(items[i].asUint());
    }
  }
  template <class T, class Visit>
  void list(const char* name, std::vector<T>& items, Visit&& visit) {
    for (const JsonValue& item : in_.at(name).items()) {
      Decoder sub(item);
      visit(sub, items.emplace_back());
    }
  }

 private:
  const JsonValue& in_;
};

// The wire format, stated once. `Cell` is `const CellResult` for the
// Encoder and `CellResult` for the Decoder; nested visitors take `auto&` so
// they inherit that constness. Key order, the `has*`-gated blocks, and the
// fields written only when set are all part of the format (kCodecV).

template <class Io, class Named>
void visitNamedCount(Io& io, Named& item) {
  io.str("name", item.name);
  io.num("count", item.count);
}

template <class Io, class Bound>
void visitKernelBound(Io& io, Bound& bound) {
  io.str("name", bound.name);
  io.num("instructions", bound.instructions);
  io.uints("portCycles", bound.portCycles);
  io.num("portBound", bound.portBound);
  io.str("bindingPort", bound.bindingPort);
  io.num("issueBound", bound.issueBound);
  io.num("cpBound", bound.cpBound);
}

template <class Io, class Cell>
void visitCell(Io& io, Cell& r) {
  std::uint64_t version = kCodecV;
  io.num("v", version);
  if (version != kCodecV) {
    throw ConfigError("cell codec: unsupported version " +
                      std::to_string(version));
  }

  io.object("key", [&](auto& key) {
    key.str("workload", r.key.workload);
    key.num("w", r.key.workloadIndex);
    key.object("config", [&](auto& config) {
      config.num("arch", r.key.config.arch);
      config.num("era", r.key.config.era);
    });
    key.num("c", r.key.configIndex);
  });
  io.object("cell", [&](auto& status) {
    status.str("name", r.cell.name);
    if (!status.flag("ok", r.cell.ok)) {
      status.str("kind", r.cell.kind);
      status.str("summary", r.cell.summary);
    }
  });
  if (io.present("faultText", !r.faultText.empty())) {
    io.str("faultText", r.faultText);
  }

  io.num("instructions", r.instructions);
  io.list("kernels", r.kernels,
          [](auto& entry, auto& kernel) { visitNamedCount(entry, kernel); });
  io.uints("groups", r.groups);
  io.num("unattributed", r.unattributed);

  io.num("criticalPath", r.criticalPath);
  io.flag("hasScaledCp", r.hasScaledCp);
  io.num("scaledCriticalPath", r.scaledCriticalPath);

  io.list("windows", r.windows, [](auto& entry, auto& window) {
    entry.num("size", window.windowSize);
    entry.num("windows", window.windows);
    entry.real("meanCp", window.meanCp);
    entry.real("meanIlp", window.meanIlp);
    entry.real("minCp", window.minCp);
    entry.real("maxCp", window.maxCp);
  });
  io.object("deps", [&](auto& deps) {
    deps.num("dependencies", r.deps.dependencies);
    deps.real("meanDistance", r.deps.meanDistance);
    deps.real("within4", r.deps.within4);
    deps.real("within16", r.deps.within16);
    deps.real("within64", r.deps.within64);
  });

  if (io.flag("hasCache", r.hasCache)) {
    io.object("cache", [&](auto& cache) {
      cache.num("loads", r.cache.loads);
      cache.num("stores", r.cache.stores);
      cache.num("l1Hits", r.cache.l1Hits);
      cache.num("l1Misses", r.cache.l1Misses);
      cache.num("l2Hits", r.cache.l2Hits);
      cache.num("l2Misses", r.cache.l2Misses);
      cache.num("writebacksToL2", r.cache.writebacksToL2);
      cache.num("writebacksToMem", r.cache.writebacksToMem);
      cache.num("prefetchesIssued", r.cache.prefetchesIssued);
      cache.num("prefetchesUseful", r.cache.prefetchesUseful);
      cache.num("prefetchFillsFromMem", r.cache.prefetchFillsFromMem);
    });
    io.num("cacheFootprintLines", r.cacheFootprintLines);
    io.num("cacheLineSetDigest", r.cacheLineSetDigest);
    io.list("cacheKernels", r.cacheKernels, [](auto& entry, auto& kernel) {
      entry.str("name", kernel.name);
      entry.num("instructions", kernel.instructions);
      entry.num("loads", kernel.loads);
      entry.num("stores", kernel.stores);
      entry.num("l1Misses", kernel.l1Misses);
      entry.num("l2Misses", kernel.l2Misses);
      entry.num("footprintLines", kernel.footprintLines);
      entry.num("lineSetDigest", kernel.lineSetDigest);
    });
  }
  io.flag("hasCacheAwareCp", r.hasCacheAwareCp);
  io.num("cacheAwareCriticalPath", r.cacheAwareCriticalPath);

  if (io.flag("hasThroughput", r.hasThroughput)) {
    io.object("throughputProgram", [&](auto& program) {
      visitKernelBound(program, r.throughputProgram);
    });
    io.list("throughputKernels", r.throughputKernels,
            [](auto& entry, auto& kernel) { visitKernelBound(entry, kernel); });
  }

  if (io.flag("hasFusion", r.hasFusion)) {
    io.num("fusedInstructions", r.fusedInstructions);
    io.num("fusionPairs", r.fusionPairs);
    io.uints("fusionPairsByRule", r.fusionPairsByRule);
    io.num("fusionUnattributedPairs", r.fusionUnattributedPairs);
    io.list("fusionKernels", r.fusionKernels, [](auto& entry, auto& kernel) {
      entry.str("name", kernel.name);
      entry.num("pairs", kernel.pairs);
      entry.uints("byRule", kernel.byRule);
    });
    io.list("fusedKernels", r.fusedKernels,
            [](auto& entry, auto& kernel) { visitNamedCount(entry, kernel); });
    io.num("fusedCriticalPath", r.fusedCriticalPath);
    io.flag("hasFusedScaledCp", r.hasFusedScaledCp);
    io.num("fusedScaledCriticalPath", r.fusedScaledCriticalPath);
  }

  if (io.flag("hasMemSystem", r.hasMemSystem)) {
    io.object("memSystem", [&](auto& mem) {
      mem.object("tlb", [&](auto& tlb) {
        tlb.num("accesses", r.memSystem.tlb.accesses);
        tlb.num("l1Hits", r.memSystem.tlb.l1Hits);
        tlb.num("l1Misses", r.memSystem.tlb.l1Misses);
        tlb.num("l2Hits", r.memSystem.tlb.l2Hits);
        tlb.num("walks", r.memSystem.tlb.walks);
        tlb.num("walkCycles", r.memSystem.tlb.walkCycles);
      });
      mem.num("footprintPages", r.memSystem.footprintPages);
      mem.num("pageSetDigest", r.memSystem.pageSetDigest);
      mem.num("demandFillBytes", r.memSystem.demandFillBytes);
      mem.num("prefetchFillBytes", r.memSystem.prefetchFillBytes);
      mem.num("writebackBytes", r.memSystem.writebackBytes);
      mem.num("missCycles", r.memSystem.missCycles);
      mem.num("mshrBoundCycles", r.memSystem.mshrBoundCycles);
      mem.num("bandwidthBoundCycles", r.memSystem.bandwidthBoundCycles);
    });
    io.list("memKernels", r.memKernels, [](auto& entry, auto& kernel) {
      entry.str("name", kernel.name);
      entry.num("instructions", kernel.instructions);
      entry.num("tlbAccesses", kernel.tlbAccesses);
      entry.num("tlbWalks", kernel.tlbWalks);
      entry.num("footprintPages", kernel.footprintPages);
      entry.num("pageSetDigest", kernel.pageSetDigest);
    });
    io.list("memScaling", r.memScaling, [](auto& entry, auto& point) {
      entry.num("cores", point.cores);
      entry.list("perCore", point.perCore, [](auto& core, auto& share) {
        core.num("accesses", share.accesses);
        core.num("l1Misses", share.l1Misses);
        core.num("l2Hits", share.l2Hits);
        core.num("l2Misses", share.l2Misses);
        core.num("latencyCycles", share.latencyCycles);
      });
      entry.num("sharedL2Accesses", point.sharedL2Accesses);
      entry.num("sharedL2Hits", point.sharedL2Hits);
      entry.num("sharedL2Misses", point.sharedL2Misses);
      entry.num("sharedWritebacksToMem", point.sharedWritebacksToMem);
      entry.num("bytesFromMem", point.bytesFromMem);
      entry.num("bandwidthBoundCycles", point.bandwidthBoundCycles);
      entry.num("mshrBoundCycles", point.mshrBoundCycles);
    });
  }
}

}  // namespace

JsonValue encodeCell(const CellResult& result) {
  JsonValue out = JsonValue::object();
  Encoder encoder(out);
  visitCell(encoder, result);
  return out;
}

CellResult decodeCell(const JsonValue& value) {
  CellResult result;
  Decoder decoder(value);
  visitCell(decoder, result);
  return result;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t cellDigest(const CellResult& result) {
  return fnv1a64(encodeCell(result).dump());
}

std::string digestHex(std::uint64_t digest) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

}  // namespace riscmp::engine
