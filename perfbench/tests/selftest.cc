// Self-test of the benchmark itself (not of the simulator). For a short run
// of every workload it checks that:
//  * the result digest is the same at one shard and at the workload's own
//    shard count, so a stored reference digest cannot be an artefact of one
//    shard count;
//  * at the workload's own shard count, the per-layer metrics keep the
//    layer map the benchmark's README documents: layers a workload bypasses
//    read 0 and the layers it stresses do not;
//  * every per-layer metric name matches [A-Za-z0-9_.-]+ and is used once.
// (run.py checks every run's names against BENCHMARK.json.)
// Exits 0 when everything holds; prints each failure otherwise.
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "experiment_run.h"
#include "layers.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using perfbench::MetricValues;

int g_failures = 0;

void Fail(const std::string& what) {
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

/// One line of the layer map: on `workload`, every per-layer metric whose
/// name starts with `prefix` is 0 (`zero`) or every one is nonzero.
struct LayerExpectation {
  std::string_view workload;
  std::string_view prefix;
  bool zero;
};

constexpr LayerExpectation kLayerMap[] = {
    // Flooding bypasses the cache, Bloom filters, churn repair and the DHT.
    {"flood-100k", "cache.", true},
    {"flood-100k", "bloom.", true},
    {"flood-100k", "overlay.repair_", true},
    {"flood-100k", "dht.", true},
    {"flood-100k", "sim.windows", false},
    // Locaware under churn: no DHT; windows, repair, Bloom and index busy.
    {"locaware-churn-10k", "dht.", true},
    {"locaware-churn-10k", "sim.windows", false},
    {"locaware-churn-10k", "overlay.repair_msgs", false},
    {"locaware-churn-10k", "bloom.update_msgs", false},
    {"locaware-churn-10k", "cache.lookups", false},
    // Hybrid on one shard runs inline (no windows) and drives the DHT.
    {"hybrid-skew-10k", "sim.windows", true},
    {"hybrid-skew-10k", "dht.lookups", false},
    {"hybrid-skew-10k", "dht.store_msgs", false},
    {"hybrid-skew-10k", "bloom.update_msgs", false},
};

/// True when `name` matches [A-Za-z0-9_.-]+.
bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void CheckMetricNames(const perfbench::Workload& w, const MetricValues& values) {
  std::set<std::string> seen;
  for (const auto& [name, value] : values) {
    if (!IsValidMetricName(name)) Fail(std::string(w.name) + ": bad metric name " + name);
    if (!seen.insert(name).second) Fail(std::string(w.name) + ": duplicate " + name);
  }
  std::printf("ok: %s printed %zu per-layer metric names\n", w.name, seen.size());
}

void CheckLayerMap(const perfbench::Workload& w, const MetricValues& values) {
  const int failures_before = g_failures;
  int checked = 0;
  for (const LayerExpectation& e : kLayerMap) {
    if (e.workload != w.name) continue;
    int matched = 0;
    for (const auto& [name, value] : values) {
      if (!std::string_view(name).starts_with(e.prefix)) continue;
      ++matched;
      ++checked;
      if ((value == 0.0) != e.zero) {
        Fail(std::string(w.name) + ": " + name + " = " + std::to_string(value) +
             (e.zero ? ", expected 0" : ", expected nonzero"));
      }
    }
    if (matched == 0) {
      Fail(std::string(w.name) + ": no metric named " + std::string(e.prefix) + "*");
    }
  }
  if (g_failures == failures_before) {
    std::printf("ok: %s layer map, %d values checked\n", w.name, checked);
  }
}

/// The traced run's per-layer values for one finished experiment.
MetricValues LayerValues(const perfbench::Workload& w,
                         const locaware::core::ExperimentConfig& config,
                         perfbench::ExperimentOutcome& out) {
  perfbench::Tracer tracer(w.name);
  MetricValues values;
  perfbench::TraceSetupFactories(config, &tracer, perfbench::Tracer::kNoParent, &values);
  perfbench::CollectLayerMetrics(out, &tracer, perfbench::Tracer::kNoParent, &values);
  return values;
}

void CheckWorkload(const perfbench::Workload& w) {
  constexpr uint64_t kSeed = 1;
  constexpr uint64_t kQueries = 100;
  const uint32_t shard_counts[] = {1, w.shards == 1 ? 4u : w.shards};
  uint64_t digests[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const auto config = perfbench::MakeConfig(w, kSeed, kQueries, shard_counts[i]);
    perfbench::ExperimentOutcome out = perfbench::RunCheckedExperiment(config);
    if (!out.error.empty()) {
      Fail(std::string(w.name) + " shards=" + std::to_string(shard_counts[i]) + ": " +
           out.error);
      return;
    }
    digests[i] = out.digest;
    if (shard_counts[i] == w.shards) {
      const MetricValues values = LayerValues(w, config, out);
      CheckMetricNames(w, values);
      CheckLayerMap(w, values);
    }
  }
  if (digests[0] != digests[1]) {
    Fail(std::string(w.name) + ": digest " + perfbench::DigestHex(digests[0]) +
         " at shards=1 but " + perfbench::DigestHex(digests[1]) + " at shards=" +
         std::to_string(shard_counts[1]));
    return;
  }
  std::printf("ok: %s digest %s at shards 1 and %u\n", w.name,
              perfbench::DigestHex(digests[0]).c_str(), shard_counts[1]);
}

}  // namespace

int main() {
  for (const perfbench::Workload& w : perfbench::Workloads()) CheckWorkload(w);
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
