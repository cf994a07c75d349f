// The repository benchmark: runs one named workload for a fixed time and
// prints its metrics as one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--references FILE] [--trace-out FILE]
//   perfbench --digest-only --workload NAME --seed N
//
// --trace 0 repeats the experiment (Engine::Create, Engine::Run, report,
// output check) until S seconds have passed, at least three times, and
// reports the end-to-end metrics: the lower quartile of each host time over
// the repetitions, the paper metrics of the (deterministic) run. --trace 1
// repeats a traced experiment whose spans cover the setup factories, Create,
// Run, the report and one replay per layer; it reports the per-layer metrics
// (medians over the repetitions) and writes the spans as JSON.
//
// Every experiment is checked: no pending or tracked query after Run, one
// record per query, the same result digest in every repetition, and the
// digest stored in FILE for this workload and seed when there is one. A
// failed Create or check counts as a failed operation and is printed on
// stderr. The last line of stdout is always
//   {"correct": B, "attempted": N, "failed": N, "values": {"name": V, ...}}
// run.py checks the names against BENCHMARK.json and attaches the units.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "experiment_run.h"
#include "layers.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinRepetitions = 3;
constexpr int kMinTracedRepetitions = 2;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  std::string references;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--references FILE] [--trace-out FILE]\n"
               "       perfbench --digest-only --workload NAME --seed N\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--references") {
      o.references = value();
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else if (arg == "--digest-only") {
      o.digest_only = true;
    } else {
      Usage("unknown argument " + arg);
    }
  }
  return o;
}

/// Reference digests: lines of "<workload> <seed> <16 hex digits>"; '#'
/// starts a comment.
std::map<std::pair<std::string, uint64_t>, uint64_t> LoadReferences(
    const std::string& path) {
  std::map<std::pair<std::string, uint64_t>, uint64_t> refs;
  if (path.empty()) return refs;
  std::ifstream in(path);
  if (!in) Usage("cannot read references " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    uint64_t seed = 0;
    std::string hex;
    if (!(fields >> name >> seed >> hex)) Usage("malformed reference line: " + line);
    refs[{name, seed}] = std::strtoull(hex.c_str(), nullptr, 16);
  }
  return refs;
}

/// The q-quantile of `v` (0 <= q <= 1), interpolating between neighbours.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// The host time reported for a series of repetitions of the same work: its
/// lower quartile. Load from other tenants only ever adds time, and it comes
/// and goes within a run, so the faster repetitions track the code more
/// closely than the median does.
double HostTime(std::vector<double> v) { return Quantile(std::move(v), 0.25); }

/// Peak resident set of this process in MiB (ru_maxrss, which Linux keeps
/// equal to VmHWM).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
}

std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricValues& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"values\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + values[i].first + "\": " + FormatNumber(values[i].second);
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Counts experiments and applies the cross-repetition output checks.
class Checker {
 public:
  Checker(const Workload& w, uint64_t seed, std::optional<uint64_t> reference)
      : workload_(w), seed_(seed), reference_(reference) {}

  /// Returns true when `out` passed every check.
  bool Check(const ExperimentOutcome& out) {
    ++attempted_;
    std::string error = out.error;
    if (error.empty() && reference_ && out.digest != *reference_) {
      error = "digest " + DigestHex(out.digest) + " differs from the reference " +
              DigestHex(*reference_);
    }
    if (error.empty() && first_digest_ && out.digest != *first_digest_) {
      error = "digest " + DigestHex(out.digest) +
              " differs from the first repetition's " + DigestHex(*first_digest_);
    }
    if (!error.empty()) {
      ++failed_;
      std::fprintf(stderr, "FAILED %s seed %llu repetition %llu: %s\n", workload_.name,
                   static_cast<unsigned long long>(seed_),
                   static_cast<unsigned long long>(attempted_), error.c_str());
      return false;
    }
    if (!first_digest_) first_digest_ = out.digest;
    return true;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::optional<uint64_t> digest() const { return first_digest_; }

 private:
  const Workload& workload_;
  uint64_t seed_;
  std::optional<uint64_t> reference_;
  std::optional<uint64_t> first_digest_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// True while another repetition should start.
bool KeepGoing(int done, int min_done, Clock::time_point start, double seconds) {
  return done < min_done || SecondsSince(start) < seconds;
}

MetricValues RunEndToEnd(const Workload& w, const Options& o, Checker* checker) {
  const auto config = MakeConfig(w, o.seed);
  std::vector<double> setup_s;
  std::vector<double> run_s;
  locaware::metrics::Summary summary;
  const auto start = Clock::now();
  for (int rep = 0; KeepGoing(rep, kMinRepetitions, start, o.seconds); ++rep) {
    ExperimentOutcome out = RunCheckedExperiment(config);
    if (!checker->Check(out)) continue;
    setup_s.push_back(out.setup_s);
    run_s.push_back(out.run_s);
    summary = out.summary;
  }
  const double queries = static_cast<double>(std::max<uint64_t>(1, summary.num_queries));
  const double maintenance_bytes = static_cast<double>(
      summary.bloom_update_bytes + summary.repair_bytes + summary.dht_store_bytes);
  std::fprintf(stderr,
               "%s seed %llu: %zu checked repetitions, digest %s\n"
               "  min / lower quartile / median: setup %.6f / %.6f / %.6f s, "
               "run %.6f / %.6f / %.6f s\n",
               w.name, static_cast<unsigned long long>(o.seed), setup_s.size(),
               checker->digest() ? DigestHex(*checker->digest()).c_str() : "-",
               Quantile(setup_s, 0.0), Quantile(setup_s, 0.25), Median(setup_s),
               Quantile(run_s, 0.0), Quantile(run_s, 0.25), Median(run_s));
  return {
      {"setup_s", HostTime(setup_s)},
      {"run_s", HostTime(run_s)},
      {"peak_rss_mb", PeakRssMb()},
      {"search_msgs_per_query", summary.msgs_per_query},
      {"wire_bytes_per_query", summary.bytes_per_query + maintenance_bytes / queries},
  };
}

MetricValues RunTraced(const Workload& w, const Options& o, Checker* checker) {
  const auto config = MakeConfig(w, o.seed);
  Tracer tracer(std::string(w.name) + "-seed" + std::to_string(o.seed));
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> order;
  const auto start = Clock::now();
  for (int rep = 0; KeepGoing(rep, kMinTracedRepetitions, start, o.seconds); ++rep) {
    const double overhead_before = tracer.OverheadSeconds();
    MetricValues values;
    const int root = tracer.Begin("experiment");
    const int setup = tracer.Begin("setup", root);
    const double factories_s = TraceSetupFactories(config, &tracer, setup, &values);
    tracer.End(setup);
    ExperimentOutcome out = RunCheckedExperiment(config, &tracer, root);
    const bool ok = checker->Check(out);
    if (ok) {
      values.emplace_back("core.setup_residual_s", out.setup_s - factories_s);
      values.emplace_back("metrics.report_s", out.report_s);
      const int replay = tracer.Begin("replay", root);
      CollectLayerMetrics(out, &tracer, replay, &values);
      tracer.End(replay);
    }
    out.engine.reset();
    tracer.End(root);
    if (!ok) continue;
    values.emplace_back("trace.overhead_s", tracer.OverheadSeconds() - overhead_before);
    for (const auto& [name, value] : values) {
      if (samples.find(name) == samples.end()) order.push_back(name);
      samples[name].push_back(value);
    }
  }

  MetricValues result;
  for (const std::string& name : order) result.emplace_back(name, Median(samples[name]));
  const double residual = Median(samples["core.setup_residual_s"]);
  std::fprintf(stderr,
               "%s seed %llu: tracing overhead %.9f s per experiment (time inside "
               "Tracer::Begin/End)\n"
               "core.setup_residual_s = %.6f s (Engine::Create minus the factory "
               "spans)\n",
               w.name, static_cast<unsigned long long>(o.seed),
               Median(samples["trace.overhead_s"]), residual);
  if (residual < 0.0) {
    std::fprintf(stderr,
                 "WARNING: negative setup residual: the factory spans overlap or "
                 "double-count work Engine::Create does once\n");
  }
  if (!o.trace_out.empty()) {
    std::ofstream file(o.trace_out);
    file << tracer.ToJson() << "\n";
    if (!file) std::fprintf(stderr, "WARNING: cannot write %s\n", o.trace_out.c_str());
  }
  return result;
}

int Main(int argc, char** argv) {
  const Options o = ParseArgs(argc, argv);
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) Usage("unknown workload '" + o.workload + "'");

  if (o.digest_only) {
    const ExperimentOutcome out = RunCheckedExperiment(MakeConfig(*w, o.seed));
    if (!out.error.empty()) {
      std::fprintf(stderr, "FAILED %s seed %llu: %s\n", w->name,
                   static_cast<unsigned long long>(o.seed), out.error.c_str());
      return 1;
    }
    std::printf("%s %llu %s\n", w->name, static_cast<unsigned long long>(o.seed),
                DigestHex(out.digest).c_str());
    return 0;
  }

  const auto refs = LoadReferences(o.references);
  const auto ref = refs.find({w->name, o.seed});
  std::optional<uint64_t> reference;
  if (ref != refs.end()) {
    reference = ref->second;
  } else {
    std::fprintf(stderr,
                 "%s seed %llu: no reference digest; checking repetitions against "
                 "each other only\n",
                 w->name, static_cast<unsigned long long>(o.seed));
  }
  Checker checker(*w, o.seed, reference);
  const MetricValues values =
      o.trace ? RunTraced(*w, o, &checker) : RunEndToEnd(*w, o, &checker);
  PrintResult(checker.failed() == 0, checker.attempted(), checker.failed(), values);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
