#include "experiment_run.h"

#include <chrono>
#include <cstdio>

#include "alloc_counter.h"
#include "common/hash.h"
#include "core/config_io.h"
#include "core/experiment.h"

namespace perfbench {

using locaware::core::Engine;
using locaware::core::ExperimentConfig;
using Clock = std::chrono::steady_clock;

ExperimentOutcome RunCheckedExperiment(const ExperimentConfig& config, Tracer* tracer,
                                       int parent) {
  ExperimentOutcome out;
  {
    ScopedSpan span(tracer, "Engine::Create", parent);
    const auto start = Clock::now();
    auto created = Engine::Create(config);
    out.setup_s = SecondsSince(start);
    if (!created.ok()) {
      out.error = "Engine::Create failed: " + created.status().ToString();
      return out;
    }
    out.engine = std::move(created).ValueOrDie();
  }
  Engine& engine = *out.engine;
  {
    ScopedSpan span(tracer, "Engine::Run", parent);
    const uint64_t allocs_before = AllocationCount();
    const auto start = Clock::now();
    engine.Run();
    out.run_s = SecondsSince(start);
    out.run_allocs = AllocationCount() - allocs_before;
  }
  {
    ScopedSpan span(tracer, "report", parent);
    const auto start = Clock::now();
    // What RunExperiment hands back, minus the raw records (ResultToJson
    // does not serialize them).
    locaware::core::ExperimentResult result;
    result.label = config.label;
    result.summary = locaware::metrics::Summarize(engine.metrics());
    result.series = locaware::metrics::Bucketize(engine.metrics().records(), 10);
    out.digest = locaware::Fnv1a64(locaware::core::ResultToJson(result));
    out.summary = result.summary;
    out.report_s = SecondsSince(start);
  }

  const uint64_t queries = config.workload.num_queries;
  if (engine.pending_query_count() != 0) {
    out.error = "pending_query_count() = " +
                std::to_string(engine.pending_query_count()) + " after Run";
  } else if (engine.tracked_query_count() != 0) {
    out.error = "tracked_query_count() = " +
                std::to_string(engine.tracked_query_count()) + " after Run";
  } else if (engine.metrics().records().size() != queries ||
             engine.workload().queries().size() != queries ||
             out.summary.num_queries != queries) {
    out.error = "expected " + std::to_string(queries) + " query records, got " +
                std::to_string(engine.metrics().records().size());
  }
  return out;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace perfbench
