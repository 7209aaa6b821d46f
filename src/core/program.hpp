// Program image: code, data, and the kernel symbol table used for
// per-kernel path-length attribution (Figure 1 of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/memory.hpp"
#include "isa/arch.hpp"

namespace riscmp {

/// A named code region (one benchmark kernel). Instruction counts are
/// attributed to the region whose [addr, addr+size) contains the pc.
struct Symbol {
  std::string name;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
};

struct Program {
  Arch arch = Arch::Rv64;
  std::uint64_t entry = 0;

  std::uint64_t codeBase = 0;
  std::vector<std::uint32_t> code;

  std::uint64_t dataBase = 0;
  std::vector<std::uint8_t> data;

  std::uint64_t bssBase = 0;
  std::uint64_t bssSize = 0;

  std::vector<Symbol> kernels;

  /// Conventional layout constants shared with the kernel compiler.
  static constexpr std::uint64_t kCodeBase = 0x10000;

  [[nodiscard]] std::uint64_t codeEnd() const {
    return codeBase + code.size() * 4;
  }

  /// Copy code and initialised data into simulated memory and zero the bss.
  void loadInto(Memory& memory) const;

  /// Find the kernel region containing `pc`, if any.
  [[nodiscard]] const Symbol* kernelAt(std::uint64_t pc) const;

  /// Find a kernel by name.
  [[nodiscard]] const Symbol* kernelNamed(std::string_view name) const;

  /// Highest address the program touches statically (for memory sizing).
  [[nodiscard]] std::uint64_t highWaterMark() const;
};

}  // namespace riscmp
