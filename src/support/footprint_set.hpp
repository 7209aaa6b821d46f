// Footprint sets: the distinct cache lines or pages a kernel touched,
// reduced to a count and an order-independent digest.
//
// The digest is a commutative sum of mix64 over the members (mixing keeps
// arithmetic progressions of line or page numbers from cancelling), so two
// runs touching the same set in any order or interleaving compare equal:
// the E11 and E14 cross-ISA invariants compare these digests between the
// RV64 and A64 compilations of one kernel.
#pragma once

#include <cstdint>

#include "support/bits.hpp"
#include "support/flat_hash.hpp"

namespace riscmp {

/// Membership set behind a footprint count and digest, which stay in the
/// caller's report structs.
class FootprintSet {
 public:
  /// Add `key`; when it is new, count it and fold mix64(key) into `digest`.
  void insert(std::uint64_t key, std::uint64_t& count,
              std::uint64_t& digest) {
    if (members_.find(key) != nullptr) return;
    members_.assign(key, 1);
    ++count;
    digest += mix64(key);
  }

  void clear() { members_.clear(); }

 private:
  FlatHashMap64<std::uint8_t> members_;
};

}  // namespace riscmp
