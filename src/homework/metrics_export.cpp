#include "homework/metrics_export.hpp"

#include <bit>
#include <string_view>
#include <vector>

#include "util/logging.hpp"

namespace hw::homework {
namespace {

constexpr std::string_view kLog = "metrics";
constexpr std::uint32_t kBaselineTag = snapshot::tag("MEXP");

// MEXP entry kinds.
constexpr std::uint8_t kScalarEntry = 0;
constexpr std::uint8_t kHistogramSettled = 1;  // count unchanged since write
constexpr std::uint8_t kHistogramMoved = 2;

/// Whether series `s` is written at a poll that starts with the Metrics
/// table at `inserted` lifetime inserts.
template <typename S>
bool due(const S& s, bool moved, std::uint64_t inserted,
         std::size_t capacity) {
  if (!s.exact || !s.written || moved) return true;
  // Rewrite a settled series before the ring can evict its last row.
  return inserted - s.written_at >= capacity / 2;
}

/// A histogram's rows other than its count hold wall-clock nanoseconds.
bool wall_clock_series(std::string_view name) {
  for (const std::string_view stat : {".sum", ".mean", ".p50", ".p90", ".p99", ".max"}) {
    if (name.ends_with(stat)) return true;
  }
  return false;
}

}  // namespace

MetricsExport::MetricsExport(Config config, hwdb::Database& db,
                             telemetry::MetricRegistry& registry)
    : Component(kName), config_(config), db_(db), registry_(registry),
      metrics_(registry) {}

MetricsExport::~MetricsExport() = default;

Status MetricsExport::create_table(hwdb::Database& db, const Config& config) {
  using hwdb::ColumnType;
  return db.create_table(hwdb::Schema("Metrics",
                                      {{"name", ColumnType::Text},
                                       {"kind", ColumnType::Text},
                                       {"value", ColumnType::Real}},
                                      &wall_clock_series),
                         config.capacity);
}

void MetricsExport::install(nox::Controller& ctl) {
  Component::install(ctl);
  if (db_.table("Metrics") == nullptr) {
    if (auto s = create_table(db_, config_); !s.ok()) {
      HW_LOG_ERROR(kLog, "cannot create Metrics table: %s",
                   s.error().message.c_str());
      return;
    }
  }
  timer_ = std::make_unique<sim::PeriodicTimer>(ctl.loop(), config_.poll,
                                                [this] { poll(); });
  timer_->start();
}

void MetricsExport::collect() {
  for (auto& [name, s] : scalars_) {
    s.live = false;
    s.exact = true;
    s.value = 0.0;
  }
  for (auto& [name, h] : histograms_) {
    h.live = false;
    h.exact = true;
    h.state = {};
  }
  // Same-named instruments (one per host, per link, ...) sum into a series.
  registry_.visit([this](const telemetry::Instrument& i) {
    const bool exact = i.determinism() == telemetry::Determinism::Exact;
    if (i.kind() == telemetry::MetricKind::Histogram) {
      Histogram& h = histograms_[i.name()];
      h.live = true;
      h.exact = h.exact && exact;
      h.state.add(static_cast<const telemetry::Histogram&>(i));
      return;
    }
    Scalar& s = scalars_[i.name()];
    s.live = true;
    s.kind = i.kind();
    s.exact = s.exact && exact;
    s.value += i.kind() == telemetry::MetricKind::Counter
                   ? static_cast<double>(
                         static_cast<const telemetry::Counter&>(i).value())
                   : static_cast<double>(
                         static_cast<const telemetry::Gauge&>(i).value());
  });
}

std::uint64_t MetricsExport::histogram_count(const std::string& name) const {
  std::uint64_t count = 0;
  registry_.visit([&](const telemetry::Instrument& i) {
    if (i.kind() == telemetry::MetricKind::Histogram && i.name() == name) {
      count += static_cast<const telemetry::Histogram&>(i).count();
    }
  });
  return count;
}

void MetricsExport::write_row(std::string name, const char* kind,
                              double value) {
  const auto status =
      db_.insert("Metrics", {hwdb::Value{std::move(name)}, hwdb::Value{kind},
                             hwdb::Value{value}});
  if (status.ok()) metrics_.rows_exported.inc();
}

void MetricsExport::poll() {
  metrics_.polls.inc();
  const hwdb::Table* table = db_.table("Metrics");
  if (table == nullptr) return;
  // Read everything first: inserting runs subscriptions, which must not run
  // under the registry's lock.
  collect();
  const std::uint64_t inserted = table->inserted();
  const std::size_t capacity = table->capacity();
  for (auto& [name, s] : scalars_) {
    if (!s.live || !due(s, s.value != s.last_value, inserted, capacity)) {
      continue;
    }
    write_row(name, telemetry::to_string(s.kind), s.value);
    s.written = true;
    s.last_value = s.value;
    s.written_at = inserted;
  }
  for (auto& [name, h] : histograms_) {
    const telemetry::HistogramState& m = h.state;
    if (!h.live || !due(h, m.count != h.last_count, inserted, capacity)) {
      continue;
    }
    write_row(name + ".count", "histogram", static_cast<double>(m.count));
    write_row(name + ".sum", "histogram", static_cast<double>(m.sum));
    write_row(name + ".mean", "histogram", m.mean());
    write_row(name + ".p50", "histogram", m.percentile(0.50));
    write_row(name + ".p90", "histogram", m.percentile(0.90));
    write_row(name + ".p99", "histogram", m.percentile(0.99));
    write_row(name + ".max", "histogram", static_cast<double>(m.max));
    h.written = true;
    h.last_count = m.count;
    h.written_at = inserted;
  }
}

void MetricsExport::save(snapshot::Writer& w) const {
  std::uint32_t entries = 0;
  for (const auto& [name, s] : scalars_) entries += s.written ? 1 : 0;
  for (const auto& [name, h] : histograms_) entries += h.written ? 1 : 0;
  // Each entry: its name front-coded after the entry before's (the maps
  // are name-ordered, so names share their prefixes), its kind, a scalar's
  // value bits, and written_at as a varint.
  ByteWriter& c = w.begin_chunk(kBaselineTag);
  c.u32(entries);
  std::string_view prev;
  for (const auto& [name, s] : scalars_) {
    if (!s.written) continue;
    snapshot::put_front_coded(c, prev, name);
    prev = name;
    c.u8(kScalarEntry);
    c.u64(std::bit_cast<std::uint64_t>(s.last_value));
    snapshot::put_varint(c, s.written_at);
  }
  for (const auto& [name, h] : histograms_) {
    if (!h.written) continue;
    snapshot::put_front_coded(c, prev, name);
    prev = name;
    c.u8(histogram_count(name) != h.last_count ? kHistogramMoved
                                               : kHistogramSettled);
    snapshot::put_varint(c, h.written_at);
  }
  w.end_chunk();
}

Status MetricsExport::restore(const snapshot::Reader& r) {
  const Bytes* chunk = r.find(kBaselineTag);
  if (chunk == nullptr) return Status::success();
  struct Entry {
    std::string name;
    std::uint8_t kind = kScalarEntry;
    double value = 0.0;
    std::uint64_t written_at = 0;
  };
  // Decode everything before touching the baseline.
  ByteReader br(*chunk);
  auto count = br.u32();
  if (!count) return count.error();
  // The smallest entry is a name that repeats the one before (two bytes),
  // its kind and a one-byte written_at.
  if (count.value() > br.remaining() / 4) {
    return make_error("metrics-export snapshot: entry count past chunk end");
  }
  std::vector<Entry> entries(count.value());
  std::string_view prev;
  for (Entry& e : entries) {
    auto name = snapshot::get_front_coded(br, prev);
    if (!name) return name.error();
    e.name = std::move(name).take();
    prev = e.name;
    auto kind = br.u8();
    if (!kind) return kind.error();
    e.kind = kind.value();
    if (e.kind > kHistogramMoved) {
      return make_error("metrics-export snapshot: unknown entry kind");
    }
    if (e.kind == kScalarEntry) {
      auto bits = br.u64();
      if (!bits) return bits.error();
      e.value = std::bit_cast<double>(bits.value());
    }
    auto at = snapshot::get_varint(br);
    if (!at) return at.error();
    e.written_at = at.value();
  }

  for (auto& [name, s] : scalars_) s.written = false;
  for (auto& [name, h] : histograms_) h.written = false;
  for (Entry& e : entries) {
    if (e.kind == kScalarEntry) {
      Scalar& s = scalars_[e.name];
      s.written = true;
      s.last_value = e.value;
      s.written_at = e.written_at;
      continue;
    }
    // A moved histogram stays unwritten, so the next poll writes it; a
    // settled one is written again once it moves past its boot count.
    Histogram& h = histograms_[e.name];
    h.written = e.kind == kHistogramSettled;
    h.last_count = histogram_count(e.name);
    h.written_at = e.written_at;
  }
  return Status::success();
}

}  // namespace hw::homework
