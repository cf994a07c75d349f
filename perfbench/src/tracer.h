// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its own calls into each module (the simulator is
// not instrumented); each has a name, start, end and parent, and all spans
// of one run share the trace id. Nothing is written until ToJson.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  explicit Tracer(std::string trace_id);

  /// Opens a span; returns its id.
  int Begin(std::string_view name, int parent = kNoParent);
  void End(int span);
  /// Duration of a closed span.
  double Seconds(int span) const;
  /// Host time spent inside Begin and End so far: the tracer's own cost.
  double OverheadSeconds() const { return static_cast<double>(overhead_ns_) / 1e9; }

  /// {"trace_id": ..., "spans": [{"id", "name", "parent", "start_s", "end_s"}]}
  std::string ToJson() const;

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  std::string trace_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int64_t overhead_ns_ = 0;
};

/// Opens a span on construction and closes it on destruction. A null tracer
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, int parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Seconds since `start` on the steady clock.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace perfbench
