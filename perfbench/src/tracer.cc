#include "tracer.h"

#include <utility>

#include "common/check.h"
#include "common/json_writer.h"

namespace perfbench {

Tracer::Tracer(std::string trace_id)
    : trace_id_(std::move(trace_id)), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(std::string_view name, int parent) {
  const int64_t start = NowNs();
  LOCAWARE_CHECK(parent == kNoParent ||
                 (parent >= 0 && static_cast<size_t>(parent) < spans_.size()));
  spans_.push_back({std::string(name), parent, start, -1});
  overhead_ns_ += NowNs() - start;
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  const int64_t end = NowNs();
  LOCAWARE_CHECK(span >= 0 && static_cast<size_t>(span) < spans_.size());
  LOCAWARE_CHECK_EQ(spans_[span].end_ns, -1) << "span closed twice";
  spans_[span].end_ns = end;
  overhead_ns_ += NowNs() - end;
}

double Tracer::Seconds(int span) const {
  const Span& s = spans_.at(span);
  LOCAWARE_CHECK(s.end_ns >= 0) << "span " << s.name << " is still open";
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

std::string Tracer::ToJson() const {
  locaware::JsonWriter w;
  w.BeginObject();
  w.Key("trace_id");
  w.String(trace_id_);
  w.Key("spans");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("id");
    w.Uint(i);
    w.Key("name");
    w.String(s.name);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("start_s");
    w.Double(static_cast<double>(s.start_ns) / 1e9);
    w.Key("end_s");
    w.Double(static_cast<double>(s.end_ns) / 1e9);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace perfbench
