// Write-temp-then-rename file persistence (ISSUE 6 satellite).
//
// Every artifact the harness leaves behind — BENCH_throughput.json,
// BENCH_cache.json, conformance digests, result-store cells — used to be
// written with a bare ofstream, so a crash or SIGKILL mid-write left a torn
// file that downstream tooling (CI artifact diffing, a rerun reading the
// store) would misparse.
// writeFileAtomic stages the full content in `<path>.tmp.<pid>` in the
// same directory and rename(2)s it over the destination, which POSIX
// guarantees is atomic: readers see either the old complete file or the
// new complete file, never a prefix.
#pragma once

#include <string>

namespace riscmp::support {

/// Atomically replace `path` with `content`. The temporary sibling is
/// flushed and closed before the rename; on any failure the temporary is
/// removed and the destination is left untouched. Returns false (and fills
/// `error` when non-null) instead of throwing, so CLI writers can keep
/// their existing "error: cannot write X" exit-2 paths.
bool writeFileAtomic(const std::string& path, const std::string& content,
                     std::string* error = nullptr);

}  // namespace riscmp::support
