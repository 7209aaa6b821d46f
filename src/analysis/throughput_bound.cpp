#include "analysis/throughput_bound.hpp"

#include <algorithm>
#include <limits>

#include "support/fault.hpp"

namespace riscmp {

double ThroughputModel::reciprocalThroughput(InstGroup group) const {
  const unsigned multiplicity = portMultiplicity(group);
  if (multiplicity == 0) return std::numeric_limits<double>::infinity();
  const unsigned width = std::max(issueWidth, 1u);
  return std::max(1.0 / static_cast<double>(multiplicity),
                  1.0 / static_cast<double>(width));
}

ThroughputBoundAnalyzer::ThroughputBoundAnalyzer(ThroughputModel model,
                                                 const Program& program)
    : model_(std::move(model)), kernelMap_(program) {
  if (model_.ports.empty()) {
    throw ConfigError("throughput model '" + model_.name +
                          "' has no ports: section; the port-pressure bound "
                          "is undefined without one",
                      {}, 0, "ports");
  }

  // One context per kernel, then the whole program.
  contexts_.resize(kernelMap_.names().size() + 1);
  for (Context& context : contexts_) {
    context.portCycles.resize(model_.ports.size(), 0);
  }
}

void ThroughputBoundAnalyzer::onRetire(const RetiredInst& inst) {
  retireOne(inst);
}

void ThroughputBoundAnalyzer::onRetireBlock(
    std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) retireOne(inst);
}

void ThroughputBoundAnalyzer::account(Context& context,
                                      const RetiredInst& inst) {
  ++context.instructions;

  // Least-loaded eligible port; ties break to the lowest port index so the
  // assignment (and therefore the report) is deterministic.
  std::size_t best = model_.ports.size();
  for (std::size_t p = 0; p < model_.ports.size(); ++p) {
    if (!model_.ports[p].accepts(inst.group)) continue;
    if (best == model_.ports.size() ||
        context.portCycles[p] < context.portCycles[best]) {
      best = p;
    }
  }
  if (best == model_.ports.size()) {
    throw ValidationFault(
        "throughput model '" + model_.name + "': no port accepts group " +
        std::string(instGroupName(inst.group)) +
        " — add it to a port's groups: list");
  }
  ++context.portCycles[best];

  // Scaled-CP chain, mirroring DependencyChainAnalyzer's exactly:
  // loads and stores cost 1 (§5.1 store-forwarding assumption), everything
  // else its group latency; memory dependencies via 8-byte chunks.
  std::uint64_t depth = 0;
  for (const Reg& reg : inst.srcs) {
    depth = std::max(depth, context.regDepth[reg.dense()]);
  }
  for (const MemAccess& access : inst.loads) {
    const std::uint64_t first = access.addr >> 3;
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
      if (const std::uint64_t* found = context.memDepth.find(chunk)) {
        depth = std::max(depth, *found);
      }
    }
  }
  const bool isMem = !inst.loads.empty() || !inst.stores.empty();
  depth += isMem ? 1
                 : model_.latencies[static_cast<std::size_t>(inst.group)];
  for (const Reg& reg : inst.dsts) {
    context.regDepth[reg.dense()] = depth;
  }
  for (const MemAccess& access : inst.stores) {
    const std::uint64_t first = access.addr >> 3;
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
      context.memDepth[chunk] = depth;
    }
  }
  context.maxDepth = std::max(context.maxDepth, depth);
}

void ThroughputBoundAnalyzer::retireOne(const RetiredInst& inst) {
  ++instructions_;
  account(contexts_.back(), inst);
  const std::int32_t kernel = kernelMap_.kernelOf(inst);
  if (kernel >= 0) {
    account(contexts_[static_cast<std::size_t>(kernel)], inst);
  }
}

ThroughputBoundAnalyzer::KernelBound ThroughputBoundAnalyzer::bound(
    const Context& context, std::string name) const {
  KernelBound result;
  result.name = std::move(name);
  result.instructions = context.instructions;
  result.portCycles = context.portCycles;
  for (std::size_t p = 0; p < context.portCycles.size(); ++p) {
    if (context.portCycles[p] > result.portBound) {
      result.portBound = context.portCycles[p];
      result.bindingPort = model_.ports[p].name;
    }
  }
  const std::uint64_t width = std::max(model_.issueWidth, 1u);
  result.issueBound = (context.instructions + width - 1) / width;
  result.cpBound = context.maxDepth;
  return result;
}

std::vector<ThroughputBoundAnalyzer::KernelBound>
ThroughputBoundAnalyzer::kernels() const {
  const std::vector<std::string>& names = kernelMap_.names();
  std::vector<KernelBound> result;
  result.reserve(names.size());
  for (std::size_t k = 0; k < names.size(); ++k) {
    result.push_back(bound(contexts_[k], names[k]));
  }
  return result;
}

ThroughputBoundAnalyzer::KernelBound ThroughputBoundAnalyzer::program() const {
  return bound(contexts_.back(), "<program>");
}

void ThroughputBoundAnalyzer::reset() {
  instructions_ = 0;
  for (Context& context : contexts_) {
    context.instructions = 0;
    std::fill(context.portCycles.begin(), context.portCycles.end(), 0);
    context.maxDepth = 0;
    context.regDepth.fill(0);
    context.memDepth.clear();
  }
}

}  // namespace riscmp
