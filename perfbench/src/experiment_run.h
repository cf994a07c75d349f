// One benchmark experiment: Engine::Create, Engine::Run and the report, each
// timed, followed by the output check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/experiment_config.h"
#include "metrics/report.h"
#include "tracer.h"

namespace perfbench {

/// Measured values by metric name, in the order they were produced. The
/// names are those BENCHMARK.json declares; run.py attaches the units.
using MetricValues = std::vector<std::pair<std::string, double>>;

struct ExperimentOutcome {
  /// Empty when Create succeeded and every output check passed; otherwise
  /// what failed.
  std::string error;
  double setup_s = 0.0;   ///< Engine::Create
  double run_s = 0.0;     ///< Engine::Run
  double report_s = 0.0;  ///< Summarize + Bucketize + ResultToJson
  /// Global operator-new calls during Engine::Run.
  uint64_t run_allocs = 0;
  /// 64-bit FNV-1a of the ResultToJson bytes.
  uint64_t digest = 0;
  locaware::metrics::Summary summary;
  /// The finished engine, kept for per-layer reads (null if Create failed).
  std::unique_ptr<locaware::core::Engine> engine;
};

/// Runs `config` to completion and checks the outputs: no pending or tracked
/// query survives the run and there is one record per workload query. With a
/// tracer, Create, Run and the report are recorded as spans under `parent`.
ExperimentOutcome RunCheckedExperiment(const locaware::core::ExperimentConfig& config,
                                       Tracer* tracer = nullptr,
                                       int parent = Tracer::kNoParent);

/// Renders a digest as 16 lowercase hex digits.
std::string DigestHex(uint64_t digest);

}  // namespace perfbench
