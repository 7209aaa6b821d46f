#include "engine/grid_spec.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "engine/cell_codec.hpp"
#include "engine/compile_cache.hpp"
#include "support/fault.hpp"

namespace riscmp::engine {

namespace {

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

support::JsonValue uintArray(const auto& values) {
  support::JsonValue array = support::JsonValue::array();
  for (const auto value : values) {
    array.push(support::JsonValue(static_cast<std::uint64_t>(value)));
  }
  return array;
}

}  // namespace

std::string archToken(Arch arch) {
  return arch == Arch::Rv64 ? "rv64" : "a64";
}

Arch archFromToken(const std::string& token) {
  if (token == "rv64") return Arch::Rv64;
  if (token == "a64") return Arch::AArch64;
  throw ConfigError("grid spec: unknown arch '" + token + "'", {}, 0, "arch");
}

std::string eraToken(kgen::CompilerEra era) {
  return era == kgen::CompilerEra::Gcc9 ? "gcc9" : "gcc12";
}

kgen::CompilerEra eraFromToken(const std::string& token) {
  if (token == "gcc9") return kgen::CompilerEra::Gcc9;
  if (token == "gcc12") return kgen::CompilerEra::Gcc12;
  throw ConfigError("grid spec: unknown era '" + token + "'", {}, 0, "era");
}

support::JsonValue gridSpecToJson(const GridSpec& spec) {
  support::JsonValue doc = support::JsonValue::object();
  doc.set("v", support::JsonValue(kGridSpecV));
  doc.set("scale_bits",
          support::JsonValue(std::bit_cast<std::uint64_t>(spec.scale)));
  support::JsonValue workloads = support::JsonValue::array();
  for (const std::string& name : spec.workloads) {
    workloads.push(support::JsonValue(name));
  }
  doc.set("workloads", std::move(workloads));
  support::JsonValue configs = support::JsonValue::array();
  for (const Config& config : spec.configs) {
    support::JsonValue entry = support::JsonValue::object();
    entry.set("arch", support::JsonValue(archToken(config.arch)));
    entry.set("era", support::JsonValue(eraToken(config.era)));
    configs.push(std::move(entry));
  }
  doc.set("configs", std::move(configs));
  doc.set("analyses",
          support::JsonValue(static_cast<std::uint64_t>(spec.analyses)));
  doc.set("gcc12_analyses",
          support::JsonValue(static_cast<std::uint64_t>(spec.gcc12Analyses)));
  doc.set("windows", uintArray(spec.windowSizes));
  doc.set("budget", support::JsonValue(spec.budget));
  doc.set("config_dir", support::JsonValue(spec.configDir));
  doc.set("model_a64", support::JsonValue(spec.modelA64));
  doc.set("model_rv64", support::JsonValue(spec.modelRv64));
  doc.set("mem_cores", uintArray(spec.memCores));
  doc.set("require_models", support::JsonValue(spec.requireModels));
  return doc;
}

GridSpec gridSpecFromJson(const support::JsonValue& value) {
  if (value.kind() != support::JsonValue::Kind::Object) {
    throw ConfigError("grid spec: expected a JSON object");
  }
  if (!value.has("v") || value.at("v").asUint() != kGridSpecV) {
    throw ConfigError("grid spec: missing or unsupported version (want v" +
                      std::to_string(kGridSpecV) + ")");
  }
  GridSpec spec;
  spec.scale = std::bit_cast<double>(value.at("scale_bits").asUint());
  spec.workloads.clear();
  for (const support::JsonValue& name : value.at("workloads").items()) {
    spec.workloads.push_back(name.asString());
  }
  spec.configs.clear();
  for (const support::JsonValue& entry : value.at("configs").items()) {
    spec.configs.push_back(
        Config{archFromToken(entry.at("arch").asString()),
               eraFromToken(entry.at("era").asString())});
  }
  const std::uint64_t analyses = value.at("analyses").asUint();
  const std::uint64_t gcc12 = value.at("gcc12_analyses").asUint();
  if ((analyses | gcc12) & ~static_cast<std::uint64_t>(kAllAnalyses)) {
    throw ConfigError("grid spec: analyses mask has unknown bits", {}, 0,
                      "analyses");
  }
  spec.analyses = static_cast<unsigned>(analyses);
  spec.gcc12Analyses = static_cast<unsigned>(gcc12);
  spec.windowSizes.clear();
  for (const support::JsonValue& size : value.at("windows").items()) {
    if (size.asUint() == 0 ||
        size.asUint() > WindowedCPAnalyzer::kMaxWindowSize) {
      throw ConfigError("grid spec: windows entries must be in [1, 65536]",
                        {}, 0, "windows");
    }
    spec.windowSizes.push_back(static_cast<std::uint32_t>(size.asUint()));
  }
  spec.budget = value.at("budget").asUint();
  spec.configDir = value.at("config_dir").asString();
  spec.modelA64 = value.at("model_a64").asString();
  spec.modelRv64 = value.at("model_rv64").asString();
  spec.memCores.clear();
  for (const support::JsonValue& cores : value.at("mem_cores").items()) {
    if (cores.asUint() == 0) {
      throw ConfigError("grid spec: mem_cores entries must be positive", {},
                        0, "mem_cores");
    }
    spec.memCores.push_back(static_cast<unsigned>(cores.asUint()));
  }
  spec.requireModels = value.at("require_models").asBool();
  return spec;
}

GridShape resolveGridShape(const GridSpec& spec) {
  if (!std::isfinite(spec.scale) || spec.scale <= 0.0) {
    throw ConfigError("grid spec: scale must be a positive finite number",
                      {}, 0, "scale");
  }
  GridShape shape;
  std::vector<workloads::WorkloadSpec> all = workloads::paperSuite(spec.scale);
  if (spec.workloads.empty()) {
    shape.suite = std::move(all);
  } else {
    for (const std::string& name : spec.workloads) {
      bool found = false;
      for (workloads::WorkloadSpec& candidate : all) {
        if (candidate.name == name) {
          shape.suite.push_back(std::move(candidate));
          found = true;
          break;
        }
      }
      if (!found) {
        throw ConfigError("grid spec: unknown workload '" + name + "'", {},
                          0, "workloads");
      }
    }
  }
  shape.configs = spec.configs.empty() ? paperConfigs() : spec.configs;
  if (shape.configs.empty()) {
    throw ConfigError("grid spec: no configs", {}, 0, "configs");
  }
  return shape;
}

namespace {

/// Load one named core model, capturing the failure text instead of
/// throwing (requireModels turns it into per-cell ConfigErrors later).
void loadModel(const std::string& dir, const std::string& name, bool throughput,
               std::optional<uarch::CoreModel>& model,
               std::optional<ThroughputModel>& throughputModel,
               std::string& error, std::uint64_t& digest) {
  if (name.empty()) return;
  const std::string path = dir + "/" + name + ".yaml";
  digest = fnv1a64(readWholeFile(path));
  try {
    model = uarch::CoreModel::fromFile(path);
    if (throughput) throughputModel = model->throughputModel();
  } catch (const Fault& fault) {
    model.reset();
    error = fault.what();
  }
}

unsigned effectiveAnalyses(const GridSpec& spec, const Config& config) {
  unsigned analyses = spec.analyses;
  if (config.era == kgen::CompilerEra::Gcc12) analyses |= spec.gcc12Analyses;
  return analyses;
}

/// Canonical per-cell content key: everything a CellResult depends on.
std::string cellKeyFor(const GridSpec& spec, const GridModels& models,
                       const workloads::WorkloadSpec& workload,
                       const Config& config) {
  const unsigned analyses = effectiveAnalyses(spec, config);
  std::ostringstream canon;
  canon << "cell-store v" << kCodecV << "\n"
        << "cell " << workload.name << "/" << configName(config) << "\n"
        << "compile "
        << digestHex(fnv1a64(CompileCache::fingerprint(
               workload.module, config.arch, config.era)))
        << "\n"
        << "analyses " << analyses << "\n"
        << "budget " << spec.budget << "\n";
  if (analyses & kWindowedCP) {
    canon << "windows";
    const std::vector<std::uint32_t>& sizes =
        spec.windowSizes.empty() ? WindowedCPAnalyzer::paperWindowSizes()
                                 : spec.windowSizes;
    for (const std::uint32_t size : sizes) canon << " " << size;
    canon << "\n";
  }
  if (analyses & kMemSystem) {
    canon << "mem-cores";
    for (const unsigned cores : spec.memCores) canon << " " << cores;
    canon << "\n";
  }
  const bool riscv = config.arch == Arch::Rv64;
  const std::string& modelName = riscv ? spec.modelRv64 : spec.modelA64;
  if (!modelName.empty()) {
    canon << "model " << modelName << " "
          << digestHex(riscv ? models.rv64Digest : models.a64Digest) << "\n";
  }
  return digestHex(fnv1a64(canon.str()));
}

}  // namespace

ResolvedGrid resolveGridSpec(const GridSpec& spec, const EngineOptions& base) {
  GridShape shape = resolveGridShape(spec);

  auto models = std::make_shared<GridModels>();
  const std::string dir =
      spec.configDir.empty() ? uarch::configDir() : spec.configDir;
  const unsigned anyAnalyses = spec.analyses | spec.gcc12Analyses;
  loadModel(dir, spec.modelA64, (anyAnalyses & kThroughputBound) != 0,
            models->a64, models->a64Throughput, models->a64Error,
            models->a64Digest);
  loadModel(dir, spec.modelRv64, (anyAnalyses & kThroughputBound) != 0,
            models->rv64, models->rv64Throughput, models->rv64Error,
            models->rv64Digest);

  ResolvedGrid resolved;
  resolved.options = base;
  EngineOptions& options = resolved.options;
  options.analyses = spec.analyses;
  options.budget = spec.budget;
  options.windowSizes = spec.windowSizes;
  options.memCores = spec.memCores;
  if (spec.gcc12Analyses != 0) {
    const GridSpec specCopy{spec};
    options.analysesFor = [specCopy](const CellKey& key) {
      return effectiveAnalyses(specCopy, key.config);
    };
  } else {
    options.analysesFor = nullptr;
  }

  const std::shared_ptr<const GridModels> shared = models;
  const bool hasModels = !spec.modelA64.empty() || !spec.modelRv64.empty();
  if (hasModels) {
    options.latenciesFor = [shared](Arch arch) -> const LatencyTable* {
      const auto& model = arch == Arch::Rv64 ? shared->rv64 : shared->a64;
      return model ? &model->latencies : nullptr;
    };
    options.cacheConfigFor =
        [shared](Arch arch) -> const uarch::mem::CacheConfig* {
      const auto& model = arch == Arch::Rv64 ? shared->rv64 : shared->a64;
      return model && model->caches ? &*model->caches : nullptr;
    };
    options.throughputModelFor =
        [shared](Arch arch) -> const ThroughputModel* {
      const auto& model =
          arch == Arch::Rv64 ? shared->rv64Throughput : shared->a64Throughput;
      return model ? &*model : nullptr;
    };
    options.fusionFor = [shared](Arch arch) -> const uarch::FusionConfig* {
      const auto& model = arch == Arch::Rv64 ? shared->rv64 : shared->a64;
      return model && model->fusion ? &*model->fusion : nullptr;
    };
  } else {
    options.latenciesFor = nullptr;
    options.cacheConfigFor = nullptr;
    options.throughputModelFor = nullptr;
    options.fusionFor = nullptr;
  }

  // The spec's model requirement composes after (not instead of) any
  // caller-side setup hook — --inject-fault keeps working through here.
  const std::function<void(const CellKey&)> baseSetup = base.cellSetup;
  if (spec.requireModels && hasModels) {
    const GridSpec specCopy{spec};
    options.cellSetup = [shared, baseSetup, specCopy](const CellKey& key) {
      if (baseSetup) baseSetup(key);
      const bool riscv = key.config.arch == Arch::Rv64;
      const std::string& name =
          riscv ? specCopy.modelRv64 : specCopy.modelA64;
      if (name.empty()) return;
      const auto& model = riscv ? shared->rv64 : shared->a64;
      if (!model) {
        throw ConfigError("core model unavailable (failed to load)", {}, 0,
                          name);
      }
      const unsigned analyses = effectiveAnalyses(specCopy, key.config);
      if ((analyses & kNeedsCacheConfig) && !model->caches) {
        throw ConfigError("core model '" + model->name +
                              "' has no caches: section",
                          {}, 0, "caches");
      }
      if ((analyses & kFusion) && !model->fusion) {
        throw ConfigError("core model '" + model->name +
                              "' has no fusion: section",
                          {}, 0, "fusion");
      }
    };
  }

  resolved.cellKeys.reserve(shape.suite.size() * shape.configs.size());
  std::string canon = "grid v" + std::to_string(kGridSpecV) + "\n";
  for (const workloads::WorkloadSpec& workload : shape.suite) {
    for (const Config& config : shape.configs) {
      resolved.cellKeys.push_back(
          cellKeyFor(spec, *models, workload, config));
      canon += resolved.cellKeys.back() + "\n";
    }
  }
  canon += spec.requireModels ? "require-models\n" : "";
  resolved.fingerprint = digestHex(fnv1a64(canon));

  const std::size_t configCount = shape.configs.size();
  std::vector<std::string> keys = resolved.cellKeys;
  options.storeKeyFor = [keys, configCount](const CellKey& key) {
    return keys[key.workloadIndex * configCount + key.configIndex];
  };

  resolved.suite = std::move(shape.suite);
  resolved.configs = std::move(shape.configs);
  resolved.models = std::move(models);
  return resolved;
}

}  // namespace riscmp::engine
