#include "layers.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <vector>

#include "bloom/bloom_delta.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "cache/response_index.h"
#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/rng.h"
#include "dht/ring.h"
#include "dht/routing.h"
#include "net/landmark.h"
#include "net/underlay.h"
#include "overlay/churn.h"
#include "overlay/overlay_graph.h"
#include "sim/event_queue.h"
#include "sim/shard_placement.h"

namespace perfbench {

namespace {

namespace core = locaware::core;
using locaware::FileId;
using locaware::KeywordId;
using locaware::PeerId;
using locaware::Rng;
using Clock = std::chrono::steady_clock;

/// Keeps replay results observable so the compiler cannot drop the work.
volatile uint64_t g_sink = 0;

/// Repeats `pass` (which returns the operations it performed) until at least
/// `min_ops` operations ran; returns nanoseconds per operation, or 0 when a
/// pass does no work.
template <typename Pass>
double NsPerOp(uint64_t min_ops, Pass&& pass) {
  uint64_t ops = 0;
  const auto start = Clock::now();
  do {
    const uint64_t n = pass();
    if (n == 0) return 0.0;
    ops += n;
  } while (ops < min_ops);
  return SecondsSince(start) * 1e9 / static_cast<double>(ops);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Each query's keywords sorted ascending, the form the data plane consumes.
std::vector<std::vector<KeywordId>> SortedQueries(const core::Engine& engine) {
  std::vector<std::vector<KeywordId>> sorted;
  for (const auto& q : engine.workload().queries()) {
    std::vector<KeywordId> kws = q.keywords;
    std::sort(kws.begin(), kws.end());
    kws.erase(std::unique(kws.begin(), kws.end()), kws.end());
    sorted.push_back(std::move(kws));
  }
  return sorted;
}

// --- replays ----------------------------------------------------------------

/// Underlay::RttMs over every overlay half-edge.
double ReplayRtt(const core::Engine& engine) {
  const auto& graph = engine.graph();
  const auto& underlay = engine.underlay();
  return NsPerOp(2'000'000, [&] {
    uint64_t ops = 0;
    double sum = 0.0;
    for (PeerId p = 0; p < graph.num_peers(); ++p) {
      for (PeerId nb : graph.Neighbors(p)) {
        sum += underlay.RttMs(p, nb);
        ++ops;
      }
    }
    g_sink = g_sink + static_cast<uint64_t>(sum);
    return ops;
  });
}

/// FileCatalog::MatchesSorted of each query against the file stores of its
/// requester and the requester's neighbors (the first hop of a search).
double ReplayMatch(const core::Engine& engine,
                   const std::vector<std::vector<KeywordId>>& sorted) {
  const auto& queries = engine.workload().queries();
  const auto& catalog = engine.catalog();
  const auto& graph = engine.graph();
  return NsPerOp(2'000'000, [&] {
    uint64_t ops = 0;
    uint64_t hits = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const PeerId requester = queries[i].requester;
      const auto scan = [&](PeerId p) {
        for (FileId f : engine.node(p).file_store) {
          hits += catalog.MatchesSorted(f, sorted[i]);
          ++ops;
        }
      };
      scan(requester);
      for (PeerId nb : graph.Neighbors(requester)) scan(nb);
    }
    g_sink = g_sink + hits;
    return ops;
  });
}

/// EventQueue hold model: a queue of one event per workload query, then
/// Pop + run + Push(now + overlay link delay) per operation.
double ReplayQueue(const core::Engine& engine) {
  const auto& queries = engine.workload().queries();
  const auto& graph = engine.graph();
  std::vector<locaware::sim::SimTime> delays;
  for (PeerId p = 0; p < graph.num_peers() && delays.size() < 4096; ++p) {
    for (PeerId nb : graph.Neighbors(p)) delays.push_back(engine.OneWayDelay(p, nb));
  }
  if (delays.empty() || queries.empty()) return 0.0;
  uint64_t fired = 0;
  locaware::sim::EventQueue queue;
  queue.Reserve(queries.size() + 1);
  for (const auto& q : queries) queue.Push(q.submit_time, [&fired] { ++fired; });
  size_t next_delay = 0;
  const double ns = NsPerOp(1'000'000, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      locaware::sim::SimTime at = 0;
      locaware::sim::EventFn fn = queue.Pop(&at);
      fn();
      queue.Push(at + delays[next_delay], [&fired] { ++fired; });
      next_delay = (next_delay + 1) % delays.size();
    }
    return static_cast<uint64_t>(queries.size());
  });
  g_sink = g_sink + fired;
  return ns;
}

/// A fresh ResponseIndex with the run's config: every query's target cached
/// with the requester as provider (insert_ns), then every query looked up
/// against the resulting index (lookup_ns).
void ReplayCache(const core::Engine& engine,
                 const std::vector<std::vector<KeywordId>>& sorted, double* lookup_ns,
                 double* insert_ns) {
  *lookup_ns = 0.0;
  *insert_ns = 0.0;
  const auto& queries = engine.workload().queries();
  if (engine.node(0).ri == nullptr || queries.empty()) return;
  const auto& catalog = engine.catalog();
  locaware::cache::ResponseIndex index(engine.params().ri);
  // Simulated time keeps advancing across passes, as it would in a run.
  const locaware::sim::SimTime span = queries.back().submit_time + 1;
  locaware::sim::SimTime offset = 0;
  *insert_ns = NsPerOp(200'000, [&] {
    for (const auto& q : queries) {
      const locaware::sim::SimTime now = offset + q.submit_time;
      locaware::cache::ProviderEntry entry{q.requester, engine.node(q.requester).loc_id,
                                           now};
      g_sink = g_sink + index.AddProvider(q.target, catalog.sorted_keywords(q.target),
                                          entry, now)
                            .evicted.size();
    }
    offset += span;
    return static_cast<uint64_t>(queries.size());
  });
  *lookup_ns = NsPerOp(200'000, [&] {
    for (size_t i = 0; i < queries.size(); ++i) {
      g_sink = g_sink + index.LookupByKeywords(sorted[i], offset).size();
    }
    return static_cast<uint64_t>(queries.size());
  });
}

/// Locaware's keyword-filter maintenance: each query's target enters a
/// counting filter, the oldest of a cache-capacity window leaves it, and the
/// projection's delta is computed against and applied to the advertised copy.
double ReplayBloom(const core::Engine& engine) {
  const auto& queries = engine.workload().queries();
  if (engine.node(0).keyword_filter == nullptr || queries.empty()) return 0.0;
  const auto& catalog = engine.catalog();
  const auto& params = engine.params();
  locaware::bloom::CountingBloomFilter counting(params.bloom_bits, params.bloom_hashes);
  locaware::bloom::BloomFilter advertised(params.bloom_bits, params.bloom_hashes);
  const size_t window = std::max<size_t>(1, params.ri.max_filenames);
  std::deque<FileId> cached;
  return NsPerOp(50'000, [&] {
    uint64_t toggled = 0;
    for (const auto& q : queries) {
      for (KeywordId kw : catalog.sorted_keywords(q.target)) {
        counting.Insert(catalog.KeywordBloomHash(kw));
      }
      cached.push_back(q.target);
      if (cached.size() > window) {
        for (KeywordId kw : catalog.sorted_keywords(cached.front())) {
          counting.Remove(catalog.KeywordBloomHash(kw));
        }
        cached.pop_front();
      }
      const locaware::bloom::BloomDelta delta =
          locaware::bloom::ComputeDelta(advertised, counting.projection());
      toggled += delta.positions.size();
      LOCAWARE_CHECK(locaware::bloom::ApplyDelta(delta, &advertised).ok());
    }
    g_sink = g_sink + toggled;
    return static_cast<uint64_t>(queries.size());
  });
}

/// dht::NextHop along each query's iterative route from its requester to
/// the owner of its first keyword, over the run's routing tables.
double ReplayNextHop(const core::Engine& engine,
                     const std::vector<std::vector<KeywordId>>& sorted) {
  const auto& queries = engine.workload().queries();
  if (engine.node(0).dht == nullptr || queries.empty()) return 0.0;
  const auto& catalog = engine.catalog();
  return NsPerOp(500'000, [&] {
    uint64_t ops = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (sorted[i].empty()) continue;
      const locaware::dht::RingId key =
          locaware::dht::RingIdOfKey(catalog.KeywordFnv(sorted[i].front()));
      PeerId at = queries[i].requester;
      for (int hop = 0; hop < 64; ++hop) {
        const locaware::dht::HopDecision d =
            locaware::dht::NextHop(*engine.node(at).dht, at, key);
        ++ops;
        if (d.done || d.next == locaware::kInvalidPeer) break;
        at = d.next;
      }
      g_sink = g_sink + at;
    }
    return ops;
  });
}

}  // namespace

double TraceSetupFactories(const core::ExperimentConfig& config, Tracer* tracer,
                           int parent, MetricValues* out) {
  // The benchmark's workloads generate everything; the replay below follows
  // Engine::Setup's generated-input path only.
  LOCAWARE_CHECK(!config.use_uniform_underlay && config.trace_path.empty());
  // Engine::Create normalizes these before Setup runs.
  locaware::net::GeometricUnderlayConfig underlay_cfg = config.underlay;
  underlay_cfg.num_peers = config.num_peers;
  underlay_cfg.num_landmarks = config.num_landmarks;
  const Rng root(config.seed);
  double total = 0.0;
  const auto timed = [&](const char* metric, const char* span_name, auto&& factory) {
    const int span = tracer->Begin(span_name, parent);
    factory();
    tracer->End(span);
    const double s = tracer->Seconds(span);
    out->emplace_back(metric, s);
    total += s;
  };
  const auto die_unless_ok = [](const auto& result) {
    LOCAWARE_CHECK(result.ok()) << result.status().ToString();
  };

  std::unique_ptr<locaware::net::Underlay> underlay;
  timed("net.underlay_build_s", "GeometricUnderlay::Build", [&] {
    Rng rng = root.Split("underlay");
    auto built = locaware::net::GeometricUnderlay::Build(underlay_cfg, &rng);
    die_unless_ok(built);
    underlay = std::move(built).ValueOrDie();
  });
  timed("net.locids_s", "ComputeAllLocIds",
        [&] { g_sink = g_sink + locaware::net::ComputeAllLocIds(*underlay).size(); });

  locaware::catalog::FileCatalog catalog;
  timed("catalog.generate_s", "FileCatalog::Generate", [&] {
    Rng rng = root.Split("catalog");
    auto built = locaware::catalog::FileCatalog::Generate(config.catalog, &rng);
    die_unless_ok(built);
    catalog = std::move(built).ValueOrDie();
  });
  locaware::catalog::QueryWorkload workload;
  timed("catalog.workload_s", "QueryWorkload::Generate", [&] {
    Rng rng = root.Split("workload");
    auto built = locaware::catalog::QueryWorkload::Generate(config.workload, catalog,
                                                            config.num_peers, &rng);
    die_unless_ok(built);
    workload = std::move(built).ValueOrDie();
  });
  timed("catalog.assign_files_s", "AssignInitialFiles", [&] {
    Rng rng = root.Split("placement");
    g_sink = g_sink + locaware::catalog::AssignInitialFiles(
                          config.num_peers, config.files_per_peer, catalog, &rng)
                          .size();
  });
  timed("sim.placement_s", "ShardPlacement", [&] {
    std::vector<size_t> peer_location(config.num_peers);
    for (PeerId p = 0; p < config.num_peers; ++p) {
      peer_location[p] = underlay->LocationOf(p);
    }
    LOCAWARE_CHECK(config.scheduler.placement ==
                   locaware::sim::PlacementStrategy::kModulo);
    g_sink = g_sink + locaware::sim::ShardPlacement::Modulo(config.scheduler.shards,
                                                            peer_location)
                          .num_shards();
  });
  timed("overlay.generate_s", "OverlayGraph::Generate", [&] {
    Rng rng = root.Split("overlay");
    locaware::overlay::OverlayConfig ocfg;
    ocfg.num_peers = config.num_peers;
    ocfg.avg_degree = config.avg_degree;
    auto built = locaware::overlay::OverlayGraph::Generate(ocfg, &rng);
    die_unless_ok(built);
    g_sink = g_sink + built.ValueOrDie().num_links();
  });
  if (config.churn.enabled) {
    timed("overlay.churn_timeline_s", "ChurnTimeline::Build", [&] {
      auto model = locaware::overlay::ChurnModel::Create(config.churn);
      die_unless_ok(model);
      const uint64_t churn_seed = root.Split("churn").NextU64();
      // Engine::RunHorizon: last submission + two deadlines + one second.
      const locaware::sim::SimTime horizon =
          workload.queries().empty()
              ? 0
              : workload.queries().back().submit_time +
                    2 * config.params.query_deadline + locaware::sim::kSecond;
      g_sink = g_sink + locaware::overlay::ChurnTimeline::Build(
                            model.ValueOrDie(), churn_seed, config.num_peers, horizon)
                            .num_peers();
    });
  } else {
    out->emplace_back("overlay.churn_timeline_s", 0.0);
  }
  if (config.protocol == core::ProtocolKind::kDht ||
      config.protocol == core::ProtocolKind::kHybrid) {
    timed("dht.ring_s", "dht::Ring::Build+ComputeTables", [&] {
      const locaware::dht::Ring ring = locaware::dht::Ring::Build(config.num_peers);
      std::vector<locaware::dht::RoutingState> tables(config.num_peers);
      for (PeerId p = 0; p < config.num_peers; ++p) {
        locaware::dht::ComputeTables(ring, p, config.params.dht_successors,
                                     config.params.dht_fingers,
                                     [](PeerId) { return true; }, &tables[p]);
      }
      g_sink = g_sink + tables.back().successors.size();
    });
  } else {
    out->emplace_back("dht.ring_s", 0.0);
  }
  return total;
}

void CollectLayerMetrics(ExperimentOutcome& outcome, Tracer* tracer, int parent,
                         MetricValues* out) {
  core::Engine& engine = *outcome.engine;
  const locaware::metrics::Summary& s = outcome.summary;
  const auto add = [out](const char* name, double value) {
    out->emplace_back(name, value);
  };
  const double queries = static_cast<double>(s.num_queries);

  // overlay
  add("overlay.churn_events", static_cast<double>(s.churn_events));
  add("overlay.repair_msgs", static_cast<double>(s.repair_msgs));
  add("overlay.repair_bytes", static_cast<double>(s.repair_bytes));
  add("overlay.stale_failures", static_cast<double>(s.stale_failures));
  add("overlay.stale_provider_hits", static_cast<double>(s.stale_provider_hits));

  // sim
  const double events = static_cast<double>(engine.simulator().executed_count());
  const double windows = static_cast<double>(s.scheduler_windows);
  add("sim.events", events);
  add("sim.windows", windows);
  add("sim.events_per_window", Ratio(events, windows));
  add("sim.steals", static_cast<double>(s.scheduler_steals));
  // Workers default to one per shard.
  add("sim.idle_share", Ratio(static_cast<double>(s.scheduler_idle_ns) / 1e9,
                              outcome.run_s * engine.num_shards()));

  // core
  uint64_t query_msgs = 0;
  uint64_t response_msgs = 0;
  uint64_t probe_msgs = 0;
  uint64_t successes = 0;
  for (const auto& r : engine.metrics().records()) {
    query_msgs += r.query_msgs;
    response_msgs += r.response_msgs;
    probe_msgs += r.probe_msgs;
    successes += r.success;
  }
  add("core.query_msgs", static_cast<double>(query_msgs));
  add("core.response_msgs", static_cast<double>(response_msgs));
  add("core.probe_msgs", static_cast<double>(probe_msgs));
  add("core.success_rate", s.success_rate);
  add("core.download_ms", s.avg_download_ms);
  add("core.successes_per_kmsg",
      Ratio(1000.0 * static_cast<double>(successes),
            static_cast<double>(query_msgs + response_msgs + probe_msgs)));
  const uint64_t maintenance_bytes =
      s.bloom_update_bytes + s.repair_bytes + s.dht_store_bytes;
  add("core.maintenance_bytes_per_query",
      Ratio(static_cast<double>(maintenance_bytes), queries));

  // cache: summed ResponseIndex::stats() over every peer's index.
  locaware::cache::ResponseIndex::Stats cache;
  for (PeerId p = 0; p < engine.num_peers(); ++p) {
    const auto& ri = engine.node(p).ri;
    if (ri == nullptr) continue;
    const auto& st = ri->stats();
    cache.lookups += st.lookups;
    cache.hits += st.hits;
    cache.inserts += st.inserts;
    cache.evictions += st.evictions;
    cache.expirations += st.expirations;
    cache.invalidations += st.invalidations;
  }
  add("cache.lookups", static_cast<double>(cache.lookups));
  add("cache.hit_ratio",
      Ratio(static_cast<double>(cache.hits), static_cast<double>(cache.lookups)));
  add("cache.inserts", static_cast<double>(cache.inserts));
  add("cache.evictions", static_cast<double>(cache.evictions));
  add("cache.expirations", static_cast<double>(cache.expirations));
  add("cache.invalidations", static_cast<double>(cache.invalidations));

  // bloom
  add("bloom.update_msgs", static_cast<double>(s.bloom_update_msgs));
  add("bloom.update_bytes", static_cast<double>(s.bloom_update_bytes));

  // dht
  add("dht.lookups", static_cast<double>(s.dht_lookups));
  add("dht.hops_per_lookup",
      Ratio(static_cast<double>(s.dht_hops), static_cast<double>(s.dht_lookups)));
  add("dht.store_msgs", static_cast<double>(s.dht_store_msgs));
  add("dht.store_bytes", static_cast<double>(s.dht_store_bytes));
  add("dht.escalations", static_cast<double>(s.hybrid_escalations));

  // common: heap traffic of the run and shard-arena footprint.
  add("mem.allocs_per_event", Ratio(static_cast<double>(outcome.run_allocs), events));
  double arena_bytes = 0.0;
  for (uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
    arena_bytes += static_cast<double>(engine.shard_arena(shard).bytes_allocated());
  }
  add("mem.arena_mb", arena_bytes / (1024.0 * 1024.0));

  // Replays, one span each.
  const auto sorted = SortedQueries(engine);
  const auto replay = [&](const char* name, auto&& fn) {
    ScopedSpan span(tracer, name, parent);
    fn();
  };
  replay("replay.net.rtt", [&] { add("net.rtt_ns", ReplayRtt(engine)); });
  replay("replay.catalog.match",
         [&] { add("catalog.match_ns", ReplayMatch(engine, sorted)); });
  replay("replay.sim.queue", [&] { add("sim.queue_ns_per_op", ReplayQueue(engine)); });
  replay("replay.cache", [&] {
    double lookup_ns = 0.0;
    double insert_ns = 0.0;
    ReplayCache(engine, sorted, &lookup_ns, &insert_ns);
    add("cache.lookup_ns", lookup_ns);
    add("cache.insert_ns", insert_ns);
  });
  replay("replay.bloom.delta", [&] { add("bloom.delta_ns", ReplayBloom(engine)); });
  replay("replay.dht.next_hop",
         [&] { add("dht.next_hop_ns", ReplayNextHop(engine, sorted)); });
}

}  // namespace perfbench
