// Static kernel attribution (DESIGN.md §10): which benchmark kernel a
// retired instruction belongs to. Every per-kernel analysis (path length,
// cache and memory-system models, throughput bound, fusion) reads its
// kernel slots from one KernelMap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "isa/trace.hpp"

namespace riscmp {

class KernelMap {
 public:
  /// Kernel regions come from the program's symbol table. Symbols sharing a
  /// name (time-step-unrolled workloads) map to one slot. Zero-size symbols
  /// cover nothing. Throws ValidationFault naming both symbols if two
  /// kernel regions overlap: attribution would be ambiguous.
  explicit KernelMap(const Program& program);

  /// Kernel names in first-appearance symbol order; slot i is names()[i].
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Slot of the kernel containing the record's pc, or -1 outside every
  /// kernel. A record stamped with a staticIndex costs one table load; one
  /// without (hand-built traces, code outside the image) costs a pc lookup
  /// that gives the same answer.
  [[nodiscard]] std::int32_t kernelOf(const RetiredInst& inst) const {
    if (inst.staticIndex < wordKernel_.size()) {
      return wordKernel_[inst.staticIndex];
    }
    return kernelAt(inst.pc);
  }

  /// Slot of the kernel whose [addr, addr+size) contains `pc`, or -1.
  [[nodiscard]] std::int32_t kernelAt(std::uint64_t pc) const;

 private:
  struct Region {
    std::uint64_t begin;
    std::uint64_t end;
    std::int32_t kernel;
  };

  std::vector<std::string> names_;
  /// Non-empty kernel regions, sorted by begin and disjoint.
  std::vector<Region> regions_;
  /// Per code word: kernelAt(its pc), precomputed.
  std::vector<std::int32_t> wordKernel_;
};

}  // namespace riscmp
