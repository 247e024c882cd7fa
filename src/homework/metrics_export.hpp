// MetricsExport NOX module: the router monitoring *itself* through its own
// measurement plane. A peer of EventExport — where EventExport populates the
// paper's Flows/Links/Leases tables with network observations, MetricsExport
// polls the router's telemetry::MetricRegistry and appends the series that
// moved to the hwdb Metrics table, so CQL queries and the RPC interface read
// router internals (packet-ins, flow installs, lookup latency percentiles,
// DHCP counters, …) exactly like any other hwdb table:
//
//   Metrics(ts, name, kind, value)
//     — `name` follows the layer.module.name convention, `kind` is
//       counter/gauge/histogram.
//
// Change-only export: a poll writes a counter or gauge only when its value
// differs from the value last written, and a histogram's seven derived rows
// (`<name>.count`, `.sum`, `.mean`, `.p50`, `.p90`, `.p99`, `.max`) only when
// its count moved. Series not declared telemetry::Determinism::Exact are
// written every poll, so the number of rows a poll writes depends only on
// replay-exact state. A series is also rewritten before the table's ring
// could evict its last row. So `last(value)` over the table is the latest
// value of every series, and `[NOW]` is the set that moved at the latest
// poll.
//
// The change-detection baseline is home state: it snapshots as the 'MEXP'
// chunk, so a resumed home writes exactly the rows its first life would have.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "hwdb/database.hpp"
#include "nox/component.hpp"
#include "nox/controller.hpp"
#include "snapshot/snapshottable.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class MetricsExport final : public nox::Component,
                            public snapshot::Snapshottable {
 public:
  struct Config {
    Duration poll = kSecond;
    std::size_t capacity = 65536;
  };

  static constexpr const char* kName = "metrics-export";

  /// `registry` is the registry to poll (and the scope of the module's own
  /// instruments); defaults to the calling thread's active registry.
  MetricsExport(Config config, hwdb::Database& db,
                telemetry::MetricRegistry& registry =
                    telemetry::MetricRegistry::current());
  ~MetricsExport() override;

  void install(nox::Controller& ctl) override;

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : polls{reg, "homework.metrics_export.polls"},
          rows_exported{reg, "homework.metrics_export.rows_exported"} {}
    telemetry::Counter polls;
    telemetry::Counter rows_exported;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

  /// One registry-to-table cycle (normally timer-driven): writes the rows of
  /// every series that is due (see the file comment).
  void poll();

  /// Creates the Metrics table on `db` (shared with tests).
  static Status create_table(hwdb::Database& db, const Config& config);

  // -- Snapshottable ('MEXP'): the baseline of every written series. A
  // scalar stores the value last written. A histogram stores whether its
  // count moved since its last write: the TELE chunk does not carry
  // histograms, so a restored home's counts restart from boot and the
  // restore rebases the baseline on them.
  void save(snapshot::Writer& w) const override;
  Status restore(const snapshot::Reader& r) override;

 private:
  /// A series' aggregate at the latest poll plus its baseline.
  struct Scalar {
    telemetry::MetricKind kind = telemetry::MetricKind::Counter;
    bool exact = true;
    bool live = false;  // seen by the latest registry visit
    double value = 0.0;
    bool written = false;  // last_value/written_at hold a baseline
    double last_value = 0.0;
    std::uint64_t written_at = 0;  // Metrics inserts before that write
  };
  struct Histogram {
    bool exact = true;
    bool live = false;
    telemetry::HistogramState state;
    bool written = false;
    std::uint64_t last_count = 0;
    std::uint64_t written_at = 0;
  };

  /// Re-reads every instrument of the registry into scalars_/histograms_.
  void collect();
  /// Summed count of the live histograms named `name`.
  [[nodiscard]] std::uint64_t histogram_count(const std::string& name) const;
  void write_row(std::string name, const char* kind, double value);

  Config config_;
  hwdb::Database& db_;
  telemetry::MetricRegistry& registry_;  // the registry poll() reads
  std::map<std::string, Scalar, std::less<>> scalars_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  Instruments metrics_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
};

}  // namespace hw::homework
