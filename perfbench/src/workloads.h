// The benchmark's named workloads: each is one experiment configuration,
// built from core::MakePaperConfig(kind, queries, seed) plus a handful of
// universe-size overrides. The engine receives nothing but that config.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/experiment_config.h"

namespace perfbench {

struct Workload {
  const char* name;
  locaware::core::ProtocolKind kind;
  size_t peers;
  size_t routers;
  size_t files;
  size_t keywords;
  bool churn;
  double zipf_exponent;
  /// Fixed run length (queries per experiment).
  uint64_t queries;
  /// Simulation shards; every other scheduler field keeps its default.
  uint32_t shards;
};

/// All workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& Workloads();

/// The workload named `name`, or nullptr.
const Workload* FindWorkload(std::string_view name);

/// The experiment config of `w` at `seed`. `queries` and `shards` override the
/// workload's own values when nonzero (the self-test runs short experiments
/// at several shard counts).
locaware::core::ExperimentConfig MakeConfig(const Workload& w, uint64_t seed,
                                            uint64_t queries = 0,
                                            uint32_t shards = 0);

}  // namespace perfbench
