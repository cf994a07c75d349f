// Per-layer measurements for the traced run. Everything here is taken from
// outside the simulator: the setup factories are called again exactly as
// Engine::Setup calls them, counters are read from the finished engine, and
// each layer's hot operation is replayed over the run's own state.
#pragma once

#include "core/experiment_config.h"
#include "experiment_run.h"
#include "tracer.h"

namespace perfbench {

/// Calls the factories Engine::Setup calls, in its order and with its
/// Rng(seed).Split names, each as a span under `parent`. Appends each
/// factory's seconds (net.underlay_build_s, catalog.generate_s, ...) to
/// `out` and returns their sum. Factories the config does not use (churn
/// timeline, DHT ring) report 0.
double TraceSetupFactories(const locaware::core::ExperimentConfig& config,
                           Tracer* tracer, int parent, MetricValues* out);

/// Appends the finished run's layer counters and the replay timings (each
/// replay a span under `parent`). A replay whose layer the protocol does not
/// use (no response index, no Bloom filters, no DHT state) reports 0.
void CollectLayerMetrics(ExperimentOutcome& outcome, Tracer* tracer, int parent,
                         MetricValues* out);

}  // namespace perfbench
