#include "core/program.hpp"

#include <algorithm>
#include <cstring>

namespace riscmp {

void Program::loadInto(Memory& memory) const {
  for (std::size_t i = 0; i < code.size(); ++i) {
    memory.write<std::uint32_t>(codeBase + i * 4, code[i]);
  }
  if (!data.empty()) {
    memory.writeBlock(dataBase, {data.data(), data.size()});
  }
  if (bssSize != 0) {
    memory.fill(bssBase, bssSize, 0);
  }
}

const Symbol* Program::kernelAt(std::uint64_t pc) const {
  for (const Symbol& symbol : kernels) {
    if (pc >= symbol.addr && pc < symbol.addr + symbol.size) return &symbol;
  }
  return nullptr;
}

const Symbol* Program::kernelNamed(std::string_view name) const {
  for (const Symbol& symbol : kernels) {
    if (symbol.name == name) return &symbol;
  }
  return nullptr;
}

std::uint64_t Program::highWaterMark() const {
  std::uint64_t top = codeEnd();
  if (!data.empty()) top = std::max(top, dataBase + data.size());
  if (bssSize != 0) top = std::max(top, bssBase + bssSize);
  return top;
}

}  // namespace riscmp
