#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].name == name) return static_cast<int>(i);
  }
  UncountedScope uncounted;
  aggs_.push_back(Aggregate{});
  aggs_.back().name = std::string(name);
  return static_cast<int>(aggs_.size() - 1);
}

void Tracer::begin(int id) {
  UncountedScope uncounted;
  Frame f{id, 0, 0, {}, {}, -1};
  if (stored_.size() < kMaxStored) {
    if (stored_.capacity() == 0) stored_.reserve(kMaxStored);
    f.stored = static_cast<std::int64_t>(stored_.size());
    stored_.push_back(
        Stored{id, stack_.empty() ? -1 : stack_.back().stored, 0, 0});
  }
  stack_.push_back(f);
  // Read the counters and the clock last, so the bookkeeping above is not
  // charged to the span.
  stack_.back().allocs_at_start = thread_allocs();
  stack_.back().start = now_ns();
}

void Tracer::end() {
  const std::int64_t end = now_ns();
  const AllocTotals allocs_now = thread_allocs();
  UncountedScope uncounted;
  const Frame f = stack_.back();
  stack_.pop_back();
  const auto dur = static_cast<std::uint64_t>(std::max<std::int64_t>(0, end - f.start));
  const AllocTotals incl = allocs_now - f.allocs_at_start;

  Aggregate& a = aggs_[f.id];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  a.allocs.count += incl.count;
  a.allocs.bytes += incl.bytes;
  a.self_allocs.count += incl.count - f.child_allocs.count;
  a.self_allocs.bytes += incl.bytes - f.child_allocs.bytes;
  a.durations_ns.push_back(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(dur, 0xffffffffu)));
  if (f.stored >= 0) {
    stored_[f.stored].start = f.start;
    stored_[f.stored].end = end;
  }
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_ns += dur;
    parent.child_allocs.count += incl.count;
    parent.child_allocs.bytes += incl.bytes;
  }
}

void Tracer::reset() {
  UncountedScope uncounted;
  for (Aggregate& a : aggs_) {
    std::string name = std::move(a.name);
    a = Aggregate{};
    a.name = std::move(name);
  }
  stack_.clear();
  stored_.clear();
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\n");
  for (const Stored& s : stored_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%lld\n", aggs_[s.id].name.c_str(),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

double Tracer::measure_span_cost_ns() {
  const int id = intern("trace.calibration");
  const bool was = enabled_;
  enabled_ = true;
  constexpr int kSpans = 20000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    Span s(id);
  }
  const std::int64_t t1 = now_ns();
  enabled_ = was;
  return static_cast<double>(t1 - t0) / kSpans;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double percentile_u32(std::vector<std::uint32_t> values, double q) {
  std::vector<double> d(values.begin(), values.end());
  return percentile(d, q);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

}  // namespace perfbench
