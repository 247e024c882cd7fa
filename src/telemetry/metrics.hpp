// The router's self-measurement plane: a registry of named instruments. The
// paper's thesis is that hwdb is *the* measurement plane every interface
// reads from; this subsystem lets the router monitor itself through that
// same plane. Modules own Counter/Gauge/Histogram instruments (plain uint64
// cells — each home simulation is single-threaded by design, so no atomics),
// the registry tracks every live instrument, and MetricsExport periodically
// writes the series that moved into the hwdb Metrics table.
//
// Registries are instance-scoped so many independent homes can coexist in
// one process (live::LiveFleet gives every home its own). Instruments bind
// to a registry at construction: either explicitly (top-level subsystems —
// Router, Datapath, Controller, Database, the RPC transports — take a
// MetricRegistry& parameter) or implicitly through the calling thread's
// MetricRegistry::current(), which defaults to the legacy process-wide
// instance() and is overridden with a ScopedMetricRegistry. Leaf modules
// therefore inherit whatever registry the enclosing home installed without
// each needing a parameter.
//
// Thread model: a registry's *instrument cells* are owned by one thread at a
// time (the home's worker); only registry membership — attach/detach/
// snapshot — is mutex-guarded, because the process-default registry is
// genuinely shared by every thread that never installed a scope.
//
// Naming convention: `layer.module.name`, e.g. `openflow.flow_table.lookups`
// or `hwdb.database.insert_ns`. Several instances of a module may carry the
// same instrument name (one per sim::Host, per LinkChannel, …); snapshots
// aggregate same-named instruments, so the name identifies the *series*.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace hw::telemetry {

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

const char* to_string(MetricKind k);

/// Whether a series replays bit-identically. A checkpoint resume or a
/// hibernate/wake catch-up re-runs the same virtual timeline, so every
/// series that counts what the simulated world did is Exact. The exceptions
/// are declared where the instrument is constructed:
///  - CacheWarmth: hit/miss accounting of pure lookup caches, which a
///    restore deliberately cold-starts (same packets, same decisions,
///    different hit split);
///  - Checkpoint: the checkpoint machinery's own work, which a replay does
///    (it restores) and the live run it replays does not.
/// For a histogram the class describes its count; its values time the wall
/// clock and are never exact. The replay fingerprint is the Exact scalar
/// set, and MetricsExport writes an Exact series only when it moves.
enum class Determinism : std::uint8_t { Exact, CacheWarmth, Checkpoint };

/// One flattened point of a registry snapshot. Histograms flatten into
/// derived samples (`<name>.count`, `<name>.p50`, `<name>.p99`, …).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  double value = 0.0;
};

class MetricRegistry;

/// Base of all instruments: registers with a registry on construction,
/// deregisters from that same registry on destruction. Non-copyable and
/// non-movable — instruments live as members of the module they instrument.
class Instrument {
 public:
  Instrument(const Instrument&) = delete;
  Instrument& operator=(const Instrument&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MetricKind kind() const { return kind_; }
  [[nodiscard]] Determinism determinism() const { return determinism_; }

 protected:
  /// Attaches to the calling thread's MetricRegistry::current().
  Instrument(std::string name, MetricKind kind, Determinism determinism);
  /// Attaches to an explicitly injected registry.
  Instrument(MetricRegistry& registry, std::string name, MetricKind kind,
             Determinism determinism);
  ~Instrument();

 private:
  MetricRegistry* registry_;  // where we attached; detach goes here
  std::string name_;
  MetricKind kind_;
  Determinism determinism_;
};

/// Monotonically increasing event count.
class Counter final : public Instrument {
 public:
  explicit Counter(std::string name, Determinism d = Determinism::Exact)
      : Instrument(std::move(name), MetricKind::Counter, d) {}
  Counter(MetricRegistry& registry, std::string name,
          Determinism d = Determinism::Exact)
      : Instrument(registry, std::move(name), MetricKind::Counter, d) {}

  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  /// Snapshot-restore only: overwrites the count. Counters stay monotone in
  /// normal operation; a checkpoint restore legitimately rewinds them.
  void restore(std::uint64_t v) { value_ = v; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level (table occupancy, connection count, …).
class Gauge final : public Instrument {
 public:
  explicit Gauge(std::string name, Determinism d = Determinism::Exact)
      : Instrument(std::move(name), MetricKind::Gauge, d) {}
  Gauge(MetricRegistry& registry, std::string name,
        Determinism d = Determinism::Exact)
      : Instrument(registry, std::move(name), MetricKind::Gauge, d) {}

  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += d; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Fixed-bucket histogram over non-negative integer observations (latency in
/// nanoseconds at the hot paths). Buckets are powers of two: bucket b holds
/// values whose bit width is b, so the range never saturates and recording
/// is one bit_width plus one increment.
class Histogram final : public Instrument {
 public:
  static constexpr std::size_t kBuckets = 64;
  using Buckets = std::array<std::uint64_t, kBuckets>;

  explicit Histogram(std::string name, Determinism d = Determinism::Exact)
      : Instrument(std::move(name), MetricKind::Histogram, d) {}
  Histogram(MetricRegistry& registry, std::string name,
            Determinism d = Determinism::Exact)
      : Instrument(registry, std::move(name), MetricKind::Histogram, d) {}

  void record(std::uint64_t v) {
    ++buckets_[std::bit_width(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max_value() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  /// Estimated q-quantile (q in [0,1]), interpolated within the bucket.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] const Buckets& buckets() const { return buckets_; }

  /// Quantile over externally merged buckets (registry aggregation).
  static double percentile_of(const Buckets& buckets, std::uint64_t count,
                              double q);

 private:
  Buckets buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Mergeable raw histogram state: the per-series aggregate a registry export
/// produces and a fleet merges across homes (bucket-wise addition
/// keeps quantile estimation exact w.r.t. the bucketing).
struct HistogramState {
  Histogram::Buckets buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void add(const Histogram& h) {
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      buckets[b] += h.buckets()[b];
    }
    count += h.count();
    sum += h.sum();
    if (h.max_value() > max) max = h.max_value();
  }
  void merge(const HistogramState& other) {
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      buckets[b] += other.buckets[b];
    }
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }
  [[nodiscard]] double percentile(double q) const {
    return Histogram::percentile_of(buckets, count, q);
  }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// An instrument registry. Instruments attach themselves; a snapshot
/// aggregates same-named instruments (sum for counters and gauges,
/// bucket-merge for histograms) into a flat, name-sorted sample vector.
///
/// instance() is the process-wide default every bare instrument lands in;
/// current() is the calling thread's active registry (instance() unless a
/// ScopedMetricRegistry overrides it). Membership operations are
/// mutex-guarded; instrument *values* are read unlocked and must only be
/// mutated/snapshotted from the thread that owns the instruments.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-default registry (legacy callers, benches, examples).
  static MetricRegistry& instance();
  /// The calling thread's active registry; instance() unless overridden.
  static MetricRegistry& current();

  /// Flattened, name-sorted view of every live instrument. Histogram series
  /// expand to `<name>.count`, `<name>.sum`, `<name>.mean`, `<name>.p50`,
  /// `<name>.p90`, `<name>.p99` and `<name>.max`.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Non-histogram series only: name → summed counter/gauge value. The
  /// deterministic view chaos/fleet runs diff (histograms time wall-clock
  /// nanoseconds and legitimately differ between runs).
  [[nodiscard]] std::map<std::string, double> scalars() const;

  /// scalars() accumulated in place: adds every counter and gauge into
  /// out[name], so merging many registries into one caller-owned map
  /// allocates only for series the map has not seen. With `exact_only`,
  /// series not declared Determinism::Exact are left out.
  void add_scalars(std::map<std::string, double>& out,
                   bool exact_only = false) const;

  /// Calls fn(const Instrument&) for every live instrument, in attach order,
  /// under the membership lock: fn reads values in place and must not
  /// construct or destroy instruments of this registry.
  template <typename Fn>
  void visit(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Instrument* i : instruments_) fn(*i);
  }

  /// Raw merged histogram state per series (fleet-wide merging).
  [[nodiscard]] std::map<std::string, HistogramState> histogram_states() const;

  /// Sum of all counter/gauge instruments bearing `name` (tests, reports);
  /// nullopt when no such instrument is live.
  [[nodiscard]] std::optional<double> total(const std::string& name) const;

  /// Snapshot restore: adjusts the first counter/gauge instrument bearing
  /// `name` so the series sums to `target` (the value scalars() reported at
  /// capture time). Counter cells clamp at zero. Returns false when no
  /// matching non-histogram instrument is live.
  bool restore_scalar(const std::string& name, double target);

  [[nodiscard]] std::size_t instrument_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return instruments_.size();
  }

 private:
  friend class Instrument;
  friend class ScopedMetricRegistry;
  void attach(Instrument* i);
  void detach(Instrument* i);
  [[nodiscard]] std::map<std::string, HistogramState> histogram_states_locked()
      const;

  static MetricRegistry*& current_slot();

  mutable std::mutex mutex_;
  std::vector<Instrument*> instruments_;
};

/// RAII override of the calling thread's MetricRegistry::current(). A
/// fleet installs one per home on its worker thread so every
/// instrument the home constructs — down to per-host and per-link cells —
/// lands in that home's registry. Nests; restores the previous scope on
/// destruction.
class ScopedMetricRegistry {
 public:
  explicit ScopedMetricRegistry(MetricRegistry& registry)
      : previous_(MetricRegistry::current_slot()) {
    MetricRegistry::current_slot() = &registry;
  }
  ~ScopedMetricRegistry() { MetricRegistry::current_slot() = previous_; }
  ScopedMetricRegistry(const ScopedMetricRegistry&) = delete;
  ScopedMetricRegistry& operator=(const ScopedMetricRegistry&) = delete;

 private:
  MetricRegistry* previous_;
};

/// Wall-clock nanosecond stopwatch recording into a histogram when it goes
/// out of scope — wraps the hot paths (flow lookup, packet-in dispatch,
/// hwdb insert) so benches and the live router share one latency source.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    h_.record(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hw::telemetry
