#include "workloads.h"

#include "core/experiment.h"

namespace perfbench {

using locaware::core::ProtocolKind;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      // Dense flooding traffic over a large universe: forwarding, the event
      // queue, RTT lookups and file-store matching do the work; setup is
      // dominated by the underlay's all-pairs paths and catalog generation.
      // Cache, Bloom, churn and DHT are bypassed.
      {"flood-100k", ProtocolKind::kFlooding, 100000, 1000, 100000, 300000,
       /*churn=*/false, /*zipf=*/1.0, /*queries=*/500, /*shards=*/4},
      // The paper protocol under churn in the sparse regime: scheduler
      // windows and barriers, Bloom gossip and overlay repair. The response
      // index is looked up on every hop but almost never hit. Small setup.
      {"locaware-churn-10k", ProtocolKind::kLocaware, 10000, 400, 10000, 30000,
       /*churn=*/true, /*zipf=*/1.0, /*queries=*/2000, /*shards=*/4},
      // Hybrid at a steep Zipf head: DHT stabilize, lookup and republish
      // traffic, run inline on one shard (no scheduler windows at all).
      // Every query escalates to the DHT, so the response index stays empty.
      {"hybrid-skew-10k", ProtocolKind::kHybrid, 10000, 400, 10000, 30000,
       /*churn=*/false, /*zipf=*/1.2, /*queries=*/1000, /*shards=*/1},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

locaware::core::ExperimentConfig MakeConfig(const Workload& w, uint64_t seed,
                                            uint64_t queries, uint32_t shards) {
  locaware::core::ExperimentConfig cfg = locaware::core::MakePaperConfig(
      w.kind, queries != 0 ? queries : w.queries, seed);
  cfg.num_peers = w.peers;
  cfg.underlay.num_routers = w.routers;
  cfg.catalog.num_files = w.files;
  cfg.catalog.keyword_pool_size = w.keywords;
  cfg.churn.enabled = w.churn;
  cfg.workload.zipf_exponent = w.zipf_exponent;
  cfg.scheduler.shards = shards != 0 ? shards : w.shards;
  return cfg;
}

}  // namespace perfbench
