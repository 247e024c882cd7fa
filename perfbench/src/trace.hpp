// Span tracer for the traced run. Spans are opened only from the benchmark's
// own code, around calls into a layer's public functions and at the public
// seams it interposes (link sinks, channel endpoints). Each span keeps
// (name, start, end, parent) in memory; self time is the span's duration
// minus the part its child spans cover, and allocations are attributed the
// same way. Single-threaded: only the driving thread opens spans.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds since process start.
std::int64_t now_ns();

class Tracer {
 public:
  struct Aggregate {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    /// Allocations inside the span, children included / excluded.
    AllocTotals allocs;
    AllocTotals self_allocs;
    /// One duration per span, for percentiles.
    std::vector<std::uint32_t> durations_ns;
  };

  /// Interns a span name; ids index aggregates().
  int intern(std::string_view name);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void begin(int id);
  void end();

  /// Clears aggregates and stored spans (names stay interned).
  void reset();

  [[nodiscard]] const std::vector<Aggregate>& aggregates() const {
    return aggs_;
  }
  [[nodiscard]] const Aggregate& aggregate(int id) const { return aggs_[id]; }

  /// Writes the stored spans as TSV (name, start_ns, end_ns, parent index;
  /// -1 for a root). Keeps at most kMaxStored spans; later ones only feed
  /// the aggregates.
  bool write_spans(const std::string& path) const;
  static constexpr std::size_t kMaxStored = 200000;

  /// Wall cost of one begin()/end() pair, measured on the spot.
  double measure_span_cost_ns();

 private:
  struct Frame {
    int id;
    std::int64_t start;
    std::uint64_t child_ns;
    AllocTotals allocs_at_start;
    AllocTotals child_allocs;
    std::int64_t stored;  // index into stored_, -1 when not stored
  };
  struct Stored {
    int id;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
  };

  bool enabled_ = false;
  std::vector<Aggregate> aggs_;
  std::vector<Frame> stack_;
  std::vector<Stored> stored_;
};

/// The process's tracer.
Tracer& tracer();

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(int id) : on_(tracer().enabled()) {
    if (on_) tracer().begin(id);
  }
  ~Span() {
    if (on_) tracer().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double percentile(std::vector<double>& values, double q);
double percentile_u32(std::vector<std::uint32_t> values, double q);
double median(std::vector<double> values);

}  // namespace perfbench
