// Exact CellResult (de)serialization (ISSUE 6 tentpole).
//
// Two transports share this codec: the content-addressed result store
// (result_store.hpp, so a rerun with the same --store reuses a completed
// cell and still renders a byte-identical report) and the
// process-isolation pipe protocol (so a forked worker can hand its whole
// result back to the parent). Exactness is the contract: every numeric
// field round-trips bit-for-bit — doubles are carried as their IEEE-754
// bit patterns, not decimal renderings — and decode(encode(x)) must
// reproduce x down to the fault text. Encoder and decoder share one field
// visitor, so the wire format is written down once. The schema is
// versioned (kCodecV); decoders reject other versions so a stale stored
// cell is re-simulated instead of mispopulating a report.
#pragma once

#include <cstdint>
#include <string>

#include "engine/engine.hpp"
#include "support/json_lite.hpp"

namespace riscmp::engine {

inline constexpr std::uint64_t kCodecV = 4;  // v4: memory-system fields

/// Encode everything `result` carries, including the verify cell status
/// and captured fault text. The `key.workloadIndex`/`configIndex` fields
/// are encoded too — decode restores a fully positioned grid cell.
support::JsonValue encodeCell(const CellResult& result);

/// Inverse of encodeCell. Throws ConfigError on version or shape mismatch
/// (the store treats that as a miss: the cell is simulated again).
CellResult decodeCell(const support::JsonValue& value);

/// FNV-1a 64 over raw bytes (cellDigest and the grid_spec content keys).
std::uint64_t fnv1a64(const std::string& bytes);

/// FNV-1a over the canonical encoding — the result store's per-cell
/// digest. Any bit of drift in a stored result invalidates the entry.
std::uint64_t cellDigest(const CellResult& result);

/// Hex spelling used for digests and content keys ("%016llx").
std::string digestHex(std::uint64_t digest);

}  // namespace riscmp::engine
