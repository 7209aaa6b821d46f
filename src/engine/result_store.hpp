// Persistent content-addressed cell-result store (ISSUE 9, layer 2).
//
// The engine guarantees each cell simulates at most once *within* a
// process (CompileCache + single-pass runGrid). This store extends that
// guarantee across processes, across time and across crashes — it is the
// engine's only mechanism for skipping computed cells, and rerunning a
// crashed grid with the same store is how it resumes: every completed
// CellResult is written as soon as it finishes — via the exact cell_codec
// encoding and writeFileAtomic, so readers only ever see whole records —
// under a content key that fingerprints everything the result depends on
// (module bytes, arch, era, analyses mask, budget, window sizes, and the
// core-model file content feeding the latency/cache/throughput/fusion
// axes; see grid_spec.hpp). Any process that later asks for the same cell
// gets the stored result for free, and because the codec is bit-exact the
// rendered report is byte-identical to a fresh simulation. This is what
// makes a warm `simd` daemon serve whole grids with zero simulations.
//
// Layout (one file per cell, sharded on the first key byte so directories
// stay small at production cell counts):
//
//   <root>/v<kCodecV>/<key[0..1]>/<key>.json
//   {"v":4,"key":"<16 hex>","digest":"<16 hex>","result":{...cell_codec}}
//
// Trust model: load() verifies the codec version, the embedded key, and
// the result digest before handing anything back; a torn, stale, or
// corrupt file is a miss (counted, never fatal), which simply re-simulates
// the cell and overwrites the entry. Concurrent writers (parallel engine
// workers, several daemons sharing one store) are safe because every write
// is a whole-file rename of identical-by-construction content.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "engine/engine.hpp"

namespace riscmp::engine {

class ResultStore {
 public:
  /// A store rooted at `root` (created on first write, not here, so a
  /// read-only consumer of a missing store just sees misses).
  explicit ResultStore(std::string root);

  /// Fetch the cell stored under `key`; std::nullopt on miss or on any
  /// verification failure (wrong codec version, key mismatch, digest
  /// mismatch, unparseable file).
  std::optional<CellResult> load(const std::string& key);

  /// Persist `result` under `key` with writeFileAtomic. Returns false on
  /// I/O failure (the run still succeeds; the cell is just not cached).
  bool store(const std::string& key, const CellResult& result);

  [[nodiscard]] const std::string& root() const { return root_; }
  /// Absolute file path a key maps to (exposed so tests can tamper).
  [[nodiscard]] std::string cellPath(const std::string& key) const;

  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }
  /// Files that existed but failed verification (subset of misses()).
  [[nodiscard]] std::uint64_t corrupt() const {
    return corrupt_.load(std::memory_order_relaxed);
  }
  /// Bytes of verified cell files served by load() (hits only), and bytes
  /// successfully persisted by store() — the sim_client --stats view of
  /// how much result traffic the store absorbed.
  [[nodiscard]] std::uint64_t bytesRead() const {
    return bytesRead_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytesWritten() const {
    return bytesWritten_.load(std::memory_order_relaxed);
  }

 private:
  std::string root_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> corrupt_{0};
  std::atomic<std::uint64_t> bytesRead_{0};
  std::atomic<std::uint64_t> bytesWritten_{0};
};

}  // namespace riscmp::engine
