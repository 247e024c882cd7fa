#include "homework/metrics_export.hpp"

#include <bit>
#include <span>
#include <string_view>
#include <vector>

#include "util/logging.hpp"

namespace hw::homework {
namespace {

constexpr std::string_view kLog = "metrics";
constexpr std::uint32_t kBaselineTag = snapshot::tag("MEXP");

// MEXP entry kinds. A histogram entry's flags byte holds, per row group,
// whether it is written and whether its count moved since; kinds 1 and 2
// (one group per histogram) are retired, so their chunks are refused.
constexpr std::uint8_t kScalarEntry = 0;
constexpr std::uint8_t kHistogramEntry = 3;
constexpr std::uint8_t kCountWritten = 1;
constexpr std::uint8_t kCountMoved = 2;
constexpr std::uint8_t kWallWritten = 4;
constexpr std::uint8_t kWallMoved = 8;

/// Whether a series (or a histogram's row group) with baseline `b` is
/// written at a poll that starts with the Metrics table at `inserted`
/// lifetime inserts: at first sight, with news, and before the ring can
/// evict its last row.
template <typename B>
bool due(const B& b, bool news, std::uint64_t inserted, std::size_t capacity) {
  return !b.written || news || inserted - b.written_at >= capacity / 2;
}

/// A histogram's row suffixes, in row order; all but the count hold
/// wall-clock nanoseconds.
constexpr std::array<std::string_view, 7> kHistogramStats = {
    ".count", ".sum", ".mean", ".p50", ".p90", ".p99", ".max"};

bool wall_clock_series(std::string_view name) {
  for (const std::string_view stat :
       std::span(kHistogramStats).subspan(1)) {
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
      Histogram& h = histogram(i.name());
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

MetricsExport::Histogram& MetricsExport::histogram(const std::string& name) {
  auto [it, fresh] = histograms_.try_emplace(name);
  if (fresh) {
    for (std::size_t i = 0; i < kHistogramStats.size(); ++i) {
      it->second.rows[i] = name + std::string(kHistogramStats[i]);
    }
  }
  return it->second;
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

void MetricsExport::write_row(std::string_view name, std::string_view kind,
                              double value) {
  using hwdb::ValueRef;
  const auto status =
      db_.insert("Metrics", {ValueRef::of_text(name), ValueRef::of_text(kind),
                             ValueRef::of_real(value)});
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
  // The poll count is restored with the home's telemetry, so the slow polls
  // fall on the same virtual polls in every life of the home.
  const bool slow_poll = metrics_.polls.value() % kSlowPolls == 0;
  for (auto& [name, s] : scalars_) {
    const bool news = s.exact ? s.value != s.last_value : slow_poll;
    if (!s.live || !due(s, news, inserted, capacity)) continue;
    write_row(name, telemetry::to_string(s.kind), s.value);
    s.written = true;
    s.last_value = s.value;
    s.written_at = inserted;
  }
  for (auto& [name, h] : histograms_) {
    if (!h.live) continue;
    const telemetry::HistogramState& m = h.state;
    const bool wall_due =
        due(h.wall, slow_poll && (!h.exact || h.wall.moved_from(m.count)),
            inserted, capacity);
    const bool count_due =
        h.exact ? due(h.count, h.count.moved_from(m.count), inserted, capacity)
                : wall_due;
    const auto mark = [&](RowGroup& g) {
      g = {.written = true, .moved = false, .count = m.count,
           .written_at = inserted};
    };
    if (count_due) {
      write_row(h.rows[0], "histogram", static_cast<double>(m.count));
      if (h.exact) mark(h.count);
    }
    if (!wall_due) continue;
    write_row(h.rows[1], "histogram", static_cast<double>(m.sum));
    write_row(h.rows[2], "histogram", m.mean());
    write_row(h.rows[3], "histogram", m.percentile(0.50));
    write_row(h.rows[4], "histogram", m.percentile(0.90));
    write_row(h.rows[5], "histogram", m.percentile(0.99));
    write_row(h.rows[6], "histogram", static_cast<double>(m.max));
    mark(h.wall);
  }
}

void MetricsExport::save(snapshot::Writer& w) const {
  std::uint32_t entries = 0;
  for (const auto& [name, s] : scalars_) entries += s.written ? 1 : 0;
  for (const auto& [name, h] : histograms_) {
    entries += h.count.written || h.wall.written ? 1 : 0;
  }
  // Each entry: its name front-coded after the entry before's (the maps
  // are name-ordered, so names share their prefixes), its kind, then a
  // scalar's value bits and written_at as a varint, or a histogram's flags
  // and the written_at of each written group.
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
    if (!h.count.written && !h.wall.written) continue;
    snapshot::put_front_coded(c, prev, name);
    prev = name;
    c.u8(kHistogramEntry);
    // Only an Exact histogram's count moves the same in every life.
    const std::uint64_t now = h.exact ? histogram_count(name) : 0;
    std::uint8_t flags = 0;
    if (h.count.written) {
      flags |= kCountWritten;
      if (h.exact && h.count.moved_from(now)) flags |= kCountMoved;
    }
    if (h.wall.written) {
      flags |= kWallWritten;
      if (h.exact && h.wall.moved_from(now)) flags |= kWallMoved;
    }
    c.u8(flags);
    if (h.count.written) snapshot::put_varint(c, h.count.written_at);
    if (h.wall.written) snapshot::put_varint(c, h.wall.written_at);
  }
  w.end_chunk();
}

Status MetricsExport::restore(const snapshot::Reader& r) {
  const Bytes* chunk = r.find(kBaselineTag);
  if (chunk == nullptr) return Status::success();
  struct Entry {
    std::string name;
    std::uint8_t kind = kScalarEntry;
    std::uint8_t flags = 0;
    double value = 0.0;
    std::uint64_t written_at = 0;
    std::uint64_t wall_written_at = 0;
  };
  const auto get_varint = [](ByteReader& br, std::uint64_t& out) -> Status {
    auto v = snapshot::get_varint(br);
    if (!v) return v.error();
    out = v.value();
    return Status::success();
  };
  // Decode everything before touching the baseline.
  ByteReader br(*chunk);
  auto count = br.u32();
  if (!count) return count.error();
  // The smallest entry is a name that repeats the one before (two bytes),
  // its kind, a histogram's flags and one one-byte written_at.
  if (count.value() > br.remaining() / 5) {
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
    if (e.kind == kScalarEntry) {
      auto bits = br.u64();
      if (!bits) return bits.error();
      e.value = std::bit_cast<double>(bits.value());
      if (auto s = get_varint(br, e.written_at); !s.ok()) return s;
      continue;
    }
    if (e.kind != kHistogramEntry) {
      return make_error("metrics-export snapshot: unknown entry kind");
    }
    auto flags = br.u8();
    if (!flags) return flags.error();
    e.flags = flags.value();
    const bool count_written = (e.flags & kCountWritten) != 0;
    const bool wall_written = (e.flags & kWallWritten) != 0;
    if (e.flags > (kCountWritten | kCountMoved | kWallWritten | kWallMoved) ||
        (!count_written && !wall_written) ||
        (!count_written && (e.flags & kCountMoved) != 0) ||
        (!wall_written && (e.flags & kWallMoved) != 0)) {
      return make_error("metrics-export snapshot: bad histogram flags");
    }
    if (count_written) {
      if (auto s = get_varint(br, e.written_at); !s.ok()) return s;
    }
    if (wall_written) {
      if (auto s = get_varint(br, e.wall_written_at); !s.ok()) return s;
    }
  }

  for (auto& [name, s] : scalars_) s.written = false;
  for (auto& [name, h] : histograms_) h.count = h.wall = {};
  for (Entry& e : entries) {
    if (e.kind == kScalarEntry) {
      Scalar& s = scalars_[e.name];
      s.written = true;
      s.last_value = e.value;
      s.written_at = e.written_at;
      continue;
    }
    // The counts restart from boot: rebase each group on the boot count,
    // keeping whether it had moved.
    Histogram& h = histogram(e.name);
    const std::uint64_t boot = histogram_count(e.name);
    const auto group = [&](std::uint8_t written, std::uint8_t moved,
                           std::uint64_t at) {
      return RowGroup{.written = (e.flags & written) != 0,
                      .moved = (e.flags & moved) != 0,
                      .count = boot,
                      .written_at = at};
    };
    h.count = group(kCountWritten, kCountMoved, e.written_at);
    h.wall = group(kWallWritten, kWallMoved, e.wall_written_at);
  }
  return Status::success();
}

}  // namespace hw::homework
