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
// What a poll writes, and why each row carries news:
//   - a counter or gauge declared telemetry::Determinism::Exact, and the
//     `<name>.count` row of an Exact histogram, only when the value differs
//     from the one last written;
//   - every other series is slow: it is written at every kSlowPolls-th poll
//     (counted by `homework.metrics_export.polls`) and nowhere in between.
//     Slow are the series not declared Exact (all seven rows of such a
//     histogram) and the six wall-clock rows of every Exact histogram
//     (`.sum`, `.mean`, `.p50`, `.p90`, `.p99`, `.max`), which at a slow
//     poll are written only if the histogram's count moved since their
//     last write.
// Every series is also written at first sight, and rewritten before the
// table's ring could evict its last row. Which rows a poll writes thus
// depends only on replay-exact state, so the table's rows, timestamps and
// names repeat at any thread count and across checkpoint/resume and
// hibernate/wake. `last(value)` over the table is the latest value of an
// Exact series and the value of a slow series at its latest write, and
// `[NOW]` is the set written at the latest poll.
//
// The change-detection baseline is home state: it snapshots as the 'MEXP'
// chunk, so a resumed home writes exactly the rows its first life would have.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <string_view>

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
  /// Polls between two writes of a slow series (see the file comment).
  static constexpr std::uint64_t kSlowPolls = 10;

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
  // scalar stores the value last written. A histogram stores, per row
  // group, whether its count moved since the group's write: the TELE chunk
  // does not carry histograms, so a restored home's counts restart from
  // boot and the restore rebases the baseline on them.
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
  /// Rows of a histogram written together, and their baseline.
  struct RowGroup {
    bool written = false;
    bool moved = false;       // the count moved before a restore rebased it
    std::uint64_t count = 0;  // the histogram's count at the write
    std::uint64_t written_at = 0;
    [[nodiscard]] bool moved_from(std::uint64_t now) const {
      return moved || now != count;
    }
  };
  struct Histogram {
    bool exact = true;
    bool live = false;
    telemetry::HistogramState state;
    std::array<std::string, 7> rows;  // `<name>.count`, `.sum`, ..., `.max`
    RowGroup count;  // the `.count` row of an Exact histogram
    RowGroup wall;   // the other six rows, or all seven if not Exact
  };

  /// Re-reads every instrument of the registry into scalars_/histograms_.
  void collect();
  /// The histogram series `name`, made with its row names on first use.
  Histogram& histogram(const std::string& name);
  /// Summed count of the live histograms named `name`.
  [[nodiscard]] std::uint64_t histogram_count(const std::string& name) const;
  void write_row(std::string_view name, std::string_view kind, double value);

  Config config_;
  hwdb::Database& db_;
  telemetry::MetricRegistry& registry_;  // the registry poll() reads
  std::map<std::string, Scalar, std::less<>> scalars_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  Instruments metrics_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
};

}  // namespace hw::homework
