// EventExport: the measurement plane's three standard tables must fill with
// deltas (Flows), samples (Links) and events (Leases) as traffic happens.
// MetricsExport: the change-only Metrics export answers "latest value at t"
// exactly like exporting every series every poll, and survives a checkpoint
// row for row.
#include <map>
#include <memory>
#include <tuple>

#include "router_fixture.hpp"
#include "snapshot/coordinator.hpp"
#include "util/rand.hpp"

namespace hw::homework {
namespace {

using testing::RouterFixture;

struct ExportFixture : RouterFixture {
  static HomeworkRouter::Config config() {
    auto c = default_config();
    c.admission = DeviceRegistry::AdmissionDefault::PermitAll;
    return c;
  }
  ExportFixture() : RouterFixture(config()) {}

  std::optional<Ipv4Address> resolve(sim::Host& host, const std::string& name) {
    std::optional<Ipv4Address> out;
    host.resolve(name, [&](Result<Ipv4Address> r, const std::string&) {
      if (r.ok()) out = r.value();
    });
    loop.run_for(2 * kSecond);
    return out;
  }
};

TEST_F(ExportFixture, StandardTablesExist) {
  const auto names = router.db().table_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "Flows"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Links"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Leases"), names.end());
}

TEST_F(ExportFixture, FlowsTableRecordsTrafficDeltas) {
  sim::Host& host = make_device("laptop");
  ASSERT_TRUE(bind(host).has_value());
  const auto dst = resolve(host, "www.example.com");
  ASSERT_TRUE(dst.has_value());
  for (int i = 0; i < 20; ++i) {
    host.send_udp(*dst, 5000, 9999, 500);
    loop.run_for(200 * kMillisecond);
  }
  auto rs = router.db().query(
      "SELECT device, sum(bytes), sum(packets) FROM Flows "
      "WHERE dst_ip = '93.184.216.34' GROUP BY device");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_text(), host.mac().to_string());
  // 20 datagrams of ~542 bytes on the wire.
  EXPECT_GE(rs.value().rows[0][2].as_int(), 18);
  EXPECT_GT(rs.value().rows[0][1].as_int(), 9000);
}

TEST_F(ExportFixture, FlowsAfterADatapathRestartCountOnlyNewTraffic) {
  sim::Host& host = make_device("laptop");
  ASSERT_TRUE(bind(host).has_value());
  const auto dst = resolve(host, "www.example.com");
  ASSERT_TRUE(dst.has_value());
  for (int i = 0; i < 20; ++i) {
    host.send_udp(*dst, 5000, 9999, 500);
    loop.run_for(200 * kMillisecond);
  }
  loop.run_for(2 * kSecond);  // the last of the 20 reach a poll

  // The restarted datapath's entry for the same match counts from zero
  // again. One datagram re-installs it (it goes up as a packet-in, which
  // the entry does not count); the rows after it hold the entry's own
  // counts, not 3 - 19.
  router.datapath().restart();
  loop.run_for(2 * kSecond);
  host.send_udp(*dst, 5000, 9999, 500);
  loop.run_for(500 * kMillisecond);
  for (int i = 0; i < 3; ++i) {
    host.send_udp(*dst, 5000, 9999, 500);
    loop.run_for(200 * kMillisecond);
  }
  loop.run_for(2 * kSecond);

  auto rs = router.db().query(
      "SELECT packets, bytes FROM Flows WHERE dst_ip = '93.184.216.34'");
  ASSERT_TRUE(rs.ok());
  ASSERT_GE(rs.value().rows.size(), 2u);
  for (const auto& row : rs.value().rows) {
    EXPECT_GT(row[0].as_int(), 0);
    EXPECT_GT(row[1].as_int(), 0);
  }
  EXPECT_EQ(rs.value().rows.back()[0].as_int(), 3);
}

TEST_F(ExportFixture, FlowsClassifiedByApp) {
  sim::Host& host = make_device("laptop");
  ASSERT_TRUE(bind(host).has_value());
  const auto dst = resolve(host, "www.example.com");
  ASSERT_TRUE(dst.has_value());
  for (int i = 0; i < 5; ++i) {
    host.send_tcp(*dst, 45000, 80, net::TcpFlags::kAck, 400);
    loop.run_for(300 * kMillisecond);
  }
  auto rs = router.db().query(
      "SELECT app, count(*) FROM Flows WHERE app = 'web' GROUP BY app");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
}

TEST_F(ExportFixture, IdleFlowsProduceNoRows) {
  sim::Host& host = make_device("laptop");
  ASSERT_TRUE(bind(host).has_value());
  const auto inserted_before = router.db().table("Flows")->inserted();
  loop.run_for(5 * kSecond);  // no traffic at all
  EXPECT_EQ(router.db().table("Flows")->inserted(), inserted_before);
}

TEST_F(ExportFixture, LinksTableSamplesWirelessStations) {
  sim::Host& near = make_device("near", sim::Position{6, 5});
  sim::Host& far = make_device("far", sim::Position{45, 45});
  ASSERT_TRUE(bind(near).has_value());
  ASSERT_TRUE(bind(far).has_value());
  loop.run_for(5 * kSecond);

  auto rs = router.db().query(
      "SELECT mac, avg(rssi) FROM Links [RANGE 5 SECONDS] GROUP BY mac");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 2u);
  double near_rssi = 0, far_rssi = 0;
  for (const auto& row : rs.value().rows) {
    if (row[0].as_text() == near.mac().to_string()) near_rssi = row[1].as_real();
    if (row[0].as_text() == far.mac().to_string()) far_rssi = row[1].as_real();
  }
  EXPECT_GT(near_rssi, far_rssi);  // closer station, stronger signal
}

TEST_F(ExportFixture, WiredDevicesAbsentFromLinks) {
  sim::Host& wired = make_device("printer");  // no position = wired
  ASSERT_TRUE(bind(wired).has_value());
  loop.run_for(3 * kSecond);
  auto rs = router.db().query("SELECT mac FROM Links WHERE mac = '" +
                              wired.mac().to_string() + "'");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(ExportFixture, RetriesAccumulateForWeakStations) {
  sim::Host& far = make_device("attic", sim::Position{60, 60});
  ASSERT_TRUE(bind(far).has_value());
  const auto dst = resolve(far, "www.example.com");
  ASSERT_TRUE(dst.has_value());
  for (int i = 0; i < 50; ++i) {
    far.send_udp(*dst, 5000, 9999, 200);
    loop.run_for(100 * kMillisecond);
  }
  auto rs = router.db().query(
      "SELECT mac, sum(retries), sum(tx) FROM Links GROUP BY mac");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_GT(rs.value().rows[0][2].as_int(), 0);  // transmissions counted
  EXPECT_GT(rs.value().rows[0][1].as_int(), 0);  // weak signal → retries
}

TEST_F(ExportFixture, LeaseEventsAppendRows) {
  sim::Host& host = make_device("phone", sim::Position{3, 3});
  ASSERT_TRUE(bind(host).has_value());
  host.release_dhcp();
  loop.run_for(kSecond);
  auto rs = router.db().query("SELECT event FROM Leases WHERE mac = '" +
                              host.mac().to_string() + "'");
  ASSERT_TRUE(rs.ok());
  std::vector<std::string> events;
  for (const auto& row : rs.value().rows) events.push_back(row[0].as_text());
  EXPECT_NE(std::find(events.begin(), events.end(), "discovered"), events.end());
  EXPECT_NE(std::find(events.begin(), events.end(), "lease_granted"),
            events.end());
  EXPECT_NE(std::find(events.begin(), events.end(), "lease_released"),
            events.end());
}

TEST(WirelessMap, StationLifecycleAndRetryModel) {
  Rng rng(3);
  homework::WirelessMap map({}, rng, sim::Position{0, 0});
  const MacAddress near_mac = MacAddress::from_index(1);
  const MacAddress far_mac = MacAddress::from_index(2);
  map.place_station(near_mac, sim::Position{1, 0});
  map.place_station(far_mac, sim::Position{60, 0});
  EXPECT_TRUE(map.has_station(near_mac));
  EXPECT_FALSE(map.has_station(MacAddress::from_index(9)));

  std::uint64_t near_retries = 0, far_retries = 0;
  for (int i = 0; i < 500; ++i) {
    near_retries += map.note_transmission(near_mac);
    far_retries += map.note_transmission(far_mac);
  }
  EXPECT_GT(far_retries, near_retries * 2)
      << "weak stations must retry far more";
  // Unknown stations are a no-op.
  EXPECT_EQ(map.note_transmission(MacAddress::from_index(9)), 0u);
  EXPECT_FALSE(map.sample_rssi(MacAddress::from_index(9)).has_value());

  auto samples = map.sample_all();
  ASSERT_EQ(samples.size(), 2u);
  map.remove_station(far_mac);
  EXPECT_EQ(map.sample_all().size(), 1u);
}

TEST_F(ExportFixture, StatsCountersAdvance) {
  sim::Host& host = make_device("laptop", sim::Position{4, 4});
  ASSERT_TRUE(bind(host).has_value());
  const auto dst = resolve(host, "www.example.com");
  ASSERT_TRUE(dst.has_value());
  // Note: the first packet of a flow is released from the packet buffer by
  // the flow-mod itself and (per OpenFlow semantics) never hits the table
  // counters — send a burst so deltas show up.
  for (int i = 0; i < 5; ++i) {
    host.send_udp(*dst, 1, 2, 100);
    loop.run_for(500 * kMillisecond);
  }
  loop.run_for(3 * kSecond);
  const auto& stats = router.event_export().stats();
  EXPECT_GT(stats.stats_polls.value(), 0u);
  EXPECT_GT(stats.flow_rows.value(), 0u);
  EXPECT_GT(stats.link_rows.value(), 0u);
  EXPECT_GT(stats.lease_rows.value(), 0u);
}

// ---------------------------------------------------------------------------
// MetricsExport: change-only rows against the export-every-poll oracle.

/// Seeded random series: counters (two instruments share a name), gauges
/// confined to a few levels so they often come back to a value already
/// written, a cache-warmth counter, and histograms that are often silent
/// between polls (one shared by two instruments, one cache-warmth).
struct RandomSeries {
  explicit RandomSeries(telemetry::MetricRegistry& reg) {
    using telemetry::Determinism;
    for (const char* name :
         {"test.rand.c0", "test.rand.c1", "test.rand.shared", "test.rand.shared"}) {
      counters.push_back(std::make_unique<telemetry::Counter>(reg, name));
    }
    counters.push_back(std::make_unique<telemetry::Counter>(
        reg, "test.rand.warm", Determinism::CacheWarmth));
    for (const char* name : {"test.rand.g0", "test.rand.g1", "test.rand.g2"}) {
      gauges.push_back(std::make_unique<telemetry::Gauge>(reg, name));
    }
    for (const char* name :
         {"test.rand.h0_ns", "test.rand.hshared_ns", "test.rand.hshared_ns"}) {
      histograms.push_back(std::make_unique<telemetry::Histogram>(reg, name));
    }
    histograms.push_back(std::make_unique<telemetry::Histogram>(
        reg, "test.rand.hwarm_ns", Determinism::CacheWarmth));
  }

  void step(Rng& rng) {
    for (auto& c : counters) {
      if (rng.chance(0.3)) c->inc(rng.uniform(4));
    }
    for (auto& g : gauges) {
      if (rng.chance(0.4)) g->set(rng.uniform_range(-2, 2));
    }
    for (auto& h : histograms) {
      while (rng.chance(0.3)) h->record(rng.uniform(5000));
    }
  }

  std::vector<std::unique_ptr<telemetry::Counter>> counters;
  std::vector<std::unique_ptr<telemetry::Gauge>> gauges;
  std::vector<std::unique_ptr<telemetry::Histogram>> histograms;
};

/// The exporter's own counters describe the export itself (rows_exported
/// differs between the two modes by design); every other series must agree.
bool describes_export(const std::string& name) {
  return name.rfind("homework.metrics_export.", 0) == 0;
}

/// What exporting every series at every poll leaves as each series' latest
/// value: the registry's flattened snapshot at the poll.
std::map<std::string, double> every_poll_oracle(
    const telemetry::MetricRegistry& reg) {
  std::map<std::string, double> out;
  for (const auto& sample : reg.snapshot()) {
    if (!describes_export(sample.name)) out[sample.name] = sample.value;
  }
  return out;
}

/// The documented "latest value of every series" query.
std::map<std::string, double> latest_values(const hwdb::Database& db) {
  const auto rs = db.query(
      "SELECT name, last(value) FROM Metrics [SINCE 0] GROUP BY name");
  EXPECT_TRUE(rs.ok());
  std::map<std::string, double> out;
  if (!rs.ok()) return out;
  for (const auto& row : rs.value().rows) {
    if (!describes_export(row[0].as_text())) {
      out[row[0].as_text()] = row[1].as_real();
    }
  }
  return out;
}

TEST(MetricsExportDifferential, LastValueMatchesExportEveryPollOracle) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    sim::EventLoop loop;
    telemetry::MetricRegistry polled;
    telemetry::MetricRegistry db_metrics;  // keeps hwdb.* out of the oracle
    hwdb::Database db(loop, db_metrics);
    // Small rings, so settled series must be rewritten before eviction. A
    // poll here writes at most 37 rows, within half the smallest ring.
    MetricsExport::Config config;
    config.capacity = 80 + rng.uniform(200);
    ASSERT_TRUE(MetricsExport::create_table(db, config).ok());
    RandomSeries series(polled);
    MetricsExport exporter(config, db, polled);

    std::uint64_t every_poll_rows = 0;
    const std::uint64_t polls = 5 + rng.uniform(60);
    for (std::uint64_t k = 1; k <= polls; ++k) {
      series.step(rng);
      loop.run_until(k * kSecond);
      const auto oracle = every_poll_oracle(polled);
      every_poll_rows += oracle.size() + 2;
      exporter.poll();
      // Moves after the poll stay invisible until the next one.
      series.step(rng);
      if (rng.chance(0.5)) {
        loop.run_until(k * kSecond + rng.uniform(kSecond));
        EXPECT_EQ(latest_values(db), oracle)
            << "seed " << seed << ", query after poll " << k;
      }
    }
    EXPECT_LT(exporter.stats().rows_exported.value(), every_poll_rows)
        << "seed " << seed;
  }
}

TEST(MetricsExportDifferential, SettledSeriesWriteNoRows) {
  sim::EventLoop loop;
  telemetry::MetricRegistry reg;
  hwdb::Database db(loop, reg);
  ASSERT_TRUE(MetricsExport::create_table(db, {}).ok());
  telemetry::Counter counter(reg, "test.settled.counter");
  telemetry::Gauge gauge(reg, "test.settled.gauge");
  telemetry::Histogram histogram(reg, "test.settled.latency_ns");
  MetricsExport exporter({}, db, reg);
  const auto rows_named = [&](const std::string& name) {
    std::size_t n = 0;
    db.table("Metrics")->for_each([&](const hwdb::RecordView& row) {
      n += row.at(0).as_text() == name ? 1 : 0;
      return true;
    });
    return n;
  };

  counter.inc(3);
  gauge.set(5);
  histogram.record(100);
  exporter.poll();  // first sight: everything is written once
  EXPECT_EQ(rows_named("test.settled.counter"), 1u);
  EXPECT_EQ(rows_named("test.settled.latency_ns.p99"), 1u);

  gauge.set(9);
  gauge.set(5);  // back where it was last written
  exporter.poll();
  exporter.poll();
  EXPECT_EQ(rows_named("test.settled.counter"), 1u);
  EXPECT_EQ(rows_named("test.settled.gauge"), 1u);
  EXPECT_EQ(rows_named("test.settled.latency_ns.count"), 1u);

  gauge.set(4);
  histogram.record(200);
  exporter.poll();
  EXPECT_EQ(rows_named("test.settled.counter"), 1u);
  EXPECT_EQ(rows_named("test.settled.gauge"), 2u);
  EXPECT_EQ(rows_named("test.settled.latency_ns.count"), 2u);
}

/// A miniature home for the checkpoint case: the random series, a database
/// and the exporter in one registry, imaged like a router (hwdb, then the
/// exporter's baseline, then telemetry last).
struct ExportHome {
  explicit ExportHome(std::size_t capacity)
      : db(loop, registry), series(registry),
        exporter(config(capacity), db, registry) {
    EXPECT_TRUE(MetricsExport::create_table(db, config(capacity)).ok());
    snaps.add_layer("hwdb", &db);
    snaps.add_layer("metrics-export", &exporter);
    snaps.add_layer("telemetry", &tele);
  }
  static MetricsExport::Config config(std::size_t capacity) {
    MetricsExport::Config c;
    c.capacity = capacity;
    return c;
  }
  void poll_at(Timestamp t, Rng& rng) {
    series.step(rng);
    loop.run_until(t);
    exporter.poll();
  }
  [[nodiscard]] std::vector<std::tuple<Timestamp, std::string, std::string>>
  rows() const {
    std::vector<std::tuple<Timestamp, std::string, std::string>> out;
    db.table("Metrics")->for_each([&](const hwdb::RecordView& row) {
      out.emplace_back(row.ts(), row.at(0).as_text(), row.at(1).as_text());
      return true;
    });
    return out;
  }

  telemetry::MetricRegistry registry;
  sim::EventLoop loop;
  hwdb::Database db;
  RandomSeries series;
  MetricsExport exporter;
  snapshot::SnapshotCoordinator snaps{loop, registry};
  snapshot::TelemetryLayer tele{registry};
};

// Capture between two polls, restore into a fresh home (whose histograms
// restart from zero: TELE carries no histograms), then drive both homes
// through the same moves and polls: the exported rows agree row for row.
TEST(MetricsExportDifferential, CheckpointMidIntervalKeepsRowsIdentical) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    const std::size_t capacity = 80 + rng.uniform(4000);
    ExportHome first(capacity);
    const std::uint64_t before = 2 + rng.uniform(10);
    for (std::uint64_t k = 1; k <= before; ++k) first.poll_at(k * kSecond, rng);
    first.series.step(rng);
    const Timestamp at = before * kSecond + 1 + rng.uniform(kSecond - 1);
    first.loop.run_until(at);
    const snapshot::SnapshotImage image = first.snaps.capture();

    ExportHome second(capacity);
    second.loop.run_until(at);
    const Status restored = second.snaps.restore(image);
    ASSERT_TRUE(restored.ok()) << restored.error().message;
    ASSERT_EQ(second.rows(), first.rows()) << "seed " << seed;

    Rng moves_first(seed * 7919);
    Rng moves_second(seed * 7919);
    const std::uint64_t after = 1 + rng.uniform(20);
    for (std::uint64_t k = before + 1; k <= before + after; ++k) {
      first.poll_at(k * kSecond, moves_first);
      second.poll_at(k * kSecond, moves_second);
    }
    EXPECT_EQ(second.rows(), first.rows()) << "seed " << seed;
  }
}

/// The exporter's MEXP chunk as it saves it.
Bytes baseline_chunk(const MetricsExport& exporter) {
  snapshot::Writer w;
  exporter.save(w);
  const Bytes image = std::move(w).finish();
  auto reader = snapshot::Reader::parse(image);
  EXPECT_TRUE(reader.ok());
  const Bytes* chunk = reader.value().find(snapshot::tag("MEXP"));
  return chunk != nullptr ? *chunk : Bytes{};
}

Bytes image_with_baseline(const Bytes& chunk) {
  snapshot::Writer w;
  w.begin_chunk(snapshot::tag("MEXP")).raw(chunk);
  w.end_chunk();
  return std::move(w).finish();
}

// The baseline's names are front-coded and its write counts are varints.
// Cut at every offset or with any byte flipped, the chunk is refused with
// the baseline as it was, or restored whole; the intact chunk restores to a
// baseline that saves the same bytes again.
TEST(MetricsExportSnapshot, DamagedBaselineIsRefusedWithTheBaselineKept) {
  Rng rng(11);
  ExportHome source(400);
  for (std::uint64_t k = 1; k <= 6; ++k) source.poll_at(k * kSecond, rng);
  const Bytes saved = baseline_chunk(source.exporter);

  ExportHome target(400);
  const auto restore = [&](const Bytes& chunk) {
    auto reader = snapshot::Reader::parse(image_with_baseline(chunk));
    EXPECT_TRUE(reader.ok());
    return target.exporter.restore(reader.value());
  };
  ASSERT_TRUE(restore(saved).ok());
  // A histogram that moved since its write is left unwritten by a restore,
  // so the restored baseline is the fixed point.
  const Bytes reference = baseline_chunk(target.exporter);
  ASSERT_GT(reference.size(), 200u);
  ASSERT_TRUE(restore(reference).ok());
  ASSERT_EQ(baseline_chunk(target.exporter), reference);

  std::size_t refused = 0;
  std::size_t accepted = 0;
  const auto trial = [&](const Bytes& bad) {
    ASSERT_TRUE(restore(reference).ok());
    if (restore(bad).ok()) {
      ++accepted;
    } else {
      ++refused;
      ASSERT_EQ(baseline_chunk(target.exporter), reference);
    }
  };
  for (std::size_t len = 0; len < reference.size(); ++len) {
    const std::size_t before = refused;
    trial(Bytes(reference.begin(), reference.begin() + static_cast<long>(len)));
    ASSERT_EQ(refused, before + 1) << "accepted a chunk cut to " << len << " bytes";
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      Bytes bad = reference;
      bad[i] ^= flip;
      trial(bad);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(refused, reference.size());
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace hw::homework
