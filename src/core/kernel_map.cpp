#include "core/kernel_map.hpp"

#include <algorithm>

#include "support/fault.hpp"

namespace riscmp {

KernelMap::KernelMap(const Program& program) {
  for (const Symbol& symbol : program.kernels) {
    const auto found = std::find(names_.begin(), names_.end(), symbol.name);
    const auto kernel = static_cast<std::int32_t>(found - names_.begin());
    if (found == names_.end()) names_.push_back(symbol.name);
    if (symbol.size != 0) {
      regions_.push_back({symbol.addr, symbol.addr + symbol.size, kernel});
    }
  }
  std::sort(regions_.begin(), regions_.end(),
            [](const Region& a, const Region& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < regions_.size(); ++i) {
    const Region& prev = regions_[i - 1];
    const Region& next = regions_[i];
    if (prev.end > next.begin) {
      throw ValidationFault(
          "kernel regions overlap: '" + names_[prev.kernel] + "' [" +
          fault_detail::hexAddr(prev.begin) + ", " +
          fault_detail::hexAddr(prev.end) + ") and '" + names_[next.kernel] +
          "' [" + fault_detail::hexAddr(next.begin) + ", " +
          fault_detail::hexAddr(next.end) + ")");
    }
  }

  // Word w holds kernelAt(codeBase + 4w): the words whose pc lies in
  // [begin, end), clipped to the code image.
  const std::uint64_t base = program.codeBase;
  const std::uint64_t words = program.code.size();
  const auto wordAtOrAfter = [&](std::uint64_t addr) -> std::uint64_t {
    if (addr <= base) return 0;
    const std::uint64_t offset = addr - base;
    return std::min(words, offset / 4 + (offset % 4 != 0));
  };
  wordKernel_.assign(words, -1);
  for (const Region& region : regions_) {
    std::fill(wordKernel_.begin() + wordAtOrAfter(region.begin),
              wordKernel_.begin() + wordAtOrAfter(region.end), region.kernel);
  }
}

std::int32_t KernelMap::kernelAt(std::uint64_t pc) const {
  const auto it = std::upper_bound(
      regions_.begin(), regions_.end(), pc,
      [](std::uint64_t addr, const Region& region) {
        return addr < region.begin;
      });
  if (it == regions_.begin() || pc >= (it - 1)->end) return -1;
  return (it - 1)->kernel;
}

}  // namespace riscmp
