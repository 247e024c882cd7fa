// The telemetry registry: instrument registration lifetime, snapshot
// aggregation across same-named instruments, histogram percentile
// estimation, the scoped latency timer, and determinism classes as the one
// definition of the replay fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include <set>

#include "live/fleet.hpp"
#include "sim/fault_injector.hpp"
#include "telemetry/delta.hpp"
#include "telemetry/metrics.hpp"
#include "workload/scenario.hpp"

namespace hw::telemetry {
namespace {

std::optional<MetricSample> find_sample(const std::vector<MetricSample>& samples,
                                        const std::string& name) {
  const auto it = std::find_if(samples.begin(), samples.end(),
                               [&](const MetricSample& s) { return s.name == name; });
  if (it == samples.end()) return std::nullopt;
  return *it;
}

TEST(Registry, InstrumentsAttachAndDetachWithScope) {
  auto& reg = MetricRegistry::instance();
  const std::size_t before = reg.instrument_count();
  {
    Counter c("test.scope.counter");
    Gauge g("test.scope.gauge");
    Histogram h("test.scope.histogram");
    EXPECT_EQ(reg.instrument_count(), before + 3);
    EXPECT_TRUE(reg.total("test.scope.counter").has_value());
  }
  EXPECT_EQ(reg.instrument_count(), before);
  EXPECT_FALSE(reg.total("test.scope.counter").has_value());
}

TEST(Registry, CounterAndGaugeBasics) {
  Counter c("test.basics.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g("test.basics.gauge");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(Registry, SnapshotAggregatesSameNamedInstruments) {
  // Per-instance cells, per-series export: two hosts carrying the same
  // instrument name must show up as one summed sample.
  Counter a("test.agg.tx_frames");
  Counter b("test.agg.tx_frames");
  a.inc(10);
  b.inc(5);
  const auto samples = MetricRegistry::instance().snapshot();
  const auto sample = find_sample(samples, "test.agg.tx_frames");
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->kind, MetricKind::Counter);
  EXPECT_DOUBLE_EQ(sample->value, 15.0);
  EXPECT_EQ(MetricRegistry::instance().total("test.agg.tx_frames"), 15.0);
}

TEST(Registry, SnapshotIsNameSorted) {
  Counter b("test.sorted.b");
  Counter a("test.sorted.a");
  const auto samples = MetricRegistry::instance().snapshot();
  EXPECT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const MetricSample& x, const MetricSample& y) { return x.name < y.name; }));
}

TEST(Registry, HistogramFlattensIntoDerivedSamples) {
  Histogram h("test.flat.latency_ns");
  h.record(100);
  h.record(200);
  h.record(300);
  const auto samples = MetricRegistry::instance().snapshot();
  const auto count = find_sample(samples, "test.flat.latency_ns.count");
  const auto sum = find_sample(samples, "test.flat.latency_ns.sum");
  const auto mean = find_sample(samples, "test.flat.latency_ns.mean");
  const auto max = find_sample(samples, "test.flat.latency_ns.max");
  ASSERT_TRUE(count.has_value());
  ASSERT_TRUE(sum.has_value());
  ASSERT_TRUE(mean.has_value());
  ASSERT_TRUE(max.has_value());
  EXPECT_DOUBLE_EQ(count->value, 3.0);
  EXPECT_DOUBLE_EQ(sum->value, 600.0);
  EXPECT_DOUBLE_EQ(mean->value, 200.0);
  EXPECT_DOUBLE_EQ(max->value, 300.0);
  for (const char* q : {".p50", ".p90", ".p99"}) {
    ASSERT_TRUE(
        find_sample(samples, std::string("test.flat.latency_ns") + q).has_value())
        << q;
  }
}

TEST(Histogram, PercentilesLandInTheRightBuckets) {
  Histogram h("test.pct.latency_ns");
  // 90 fast observations (~10 ns) and 10 slow ones (~1000 ns): the median
  // must come from the fast bucket, the p99 from the slow one. Buckets are
  // powers of two, so assert bucket ranges, not exact values.
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1000);
  const double p50 = h.percentile(0.50);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p50, 8.0);     // bit_width(10) == 4 → bucket [8, 16)
  EXPECT_LE(p50, 16.0);
  EXPECT_GE(p99, 512.0);   // bit_width(1000) == 10 → bucket [512, 1024)
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(p50, p99);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max_value(), 1000u);
}

TEST(Histogram, EmptyHistogramIsZero) {
  Histogram h("test.empty.latency_ns");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, SnapshotMergesSameNamedHistograms) {
  Histogram a("test.merge.latency_ns");
  Histogram b("test.merge.latency_ns");
  for (int i = 0; i < 50; ++i) a.record(10);
  for (int i = 0; i < 50; ++i) b.record(1000);
  const auto samples = MetricRegistry::instance().snapshot();
  const auto count = find_sample(samples, "test.merge.latency_ns.count");
  ASSERT_TRUE(count.has_value());
  EXPECT_DOUBLE_EQ(count->value, 100.0);
  // With half the merged observations slow, p90 must come from the slow
  // bucket even though neither instrument alone would put it there.
  const auto p90 = find_sample(samples, "test.merge.latency_ns.p90");
  ASSERT_TRUE(p90.has_value());
  EXPECT_GE(p90->value, 512.0);
}

TEST(Histogram, ScopedTimerRecordsOneObservation) {
  Histogram h("test.timer.latency_ns");
  { const ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedRegistry, BareInstrumentsLandInTheActiveScope) {
  MetricRegistry mine;
  const std::size_t process_before = MetricRegistry::instance().instrument_count();
  {
    ScopedMetricRegistry scope(mine);
    Counter c("test.scoped.counter");
    c.inc(3);
    EXPECT_EQ(mine.instrument_count(), 1u);
    EXPECT_EQ(MetricRegistry::instance().instrument_count(), process_before);
    EXPECT_EQ(mine.total("test.scoped.counter"), 3.0);
    EXPECT_FALSE(
        MetricRegistry::instance().total("test.scoped.counter").has_value());
  }
  // Scope gone: bare instruments fall back to the process registry.
  Counter after("test.scoped.after");
  EXPECT_FALSE(mine.total("test.scoped.after").has_value());
  EXPECT_TRUE(
      MetricRegistry::instance().total("test.scoped.after").has_value());
}

TEST(ScopedRegistry, ScopesNestAndRestore) {
  MetricRegistry outer;
  MetricRegistry inner;
  ScopedMetricRegistry outer_scope(outer);
  Counter a("test.nest.a");
  {
    ScopedMetricRegistry inner_scope(inner);
    Counter b("test.nest.b");
    EXPECT_EQ(inner.instrument_count(), 1u);
    // The inner scope detaches b before the outer scope sees anything.
  }
  Counter c("test.nest.c");
  EXPECT_EQ(outer.instrument_count(), 2u);  // a and c
  EXPECT_EQ(inner.instrument_count(), 0u);
}

TEST(ScopedRegistry, ExplicitInjectionWinsOverTheScope) {
  MetricRegistry scoped;
  MetricRegistry injected;
  ScopedMetricRegistry scope(scoped);
  Counter c(injected, "test.inject.counter");
  c.inc();
  EXPECT_EQ(injected.total("test.inject.counter"), 1.0);
  EXPECT_FALSE(scoped.total("test.inject.counter").has_value());
}

TEST(ScopedRegistry, DetachTargetsTheAttachRegistry) {
  // An instrument destroyed under a *different* scope than it was created
  // under must still deregister from where it attached.
  MetricRegistry first;
  MetricRegistry second;
  auto c = [&] {
    ScopedMetricRegistry scope(first);
    return std::make_unique<Counter>("test.detach.counter");
  }();
  {
    ScopedMetricRegistry scope(second);
    c.reset();
  }
  EXPECT_EQ(first.instrument_count(), 0u);
  EXPECT_EQ(second.instrument_count(), 0u);
}

TEST(ScopedRegistry, ScalarsExcludeHistogramSeries) {
  MetricRegistry reg;
  ScopedMetricRegistry scope(reg);
  Counter c("test.scalars.counter");
  Gauge g("test.scalars.gauge");
  Histogram h("test.scalars.latency_ns");
  c.inc(2);
  g.set(-5);
  h.record(100);
  const auto scalars = reg.scalars();
  EXPECT_EQ(scalars.size(), 2u);
  EXPECT_DOUBLE_EQ(scalars.at("test.scalars.counter"), 2.0);
  EXPECT_DOUBLE_EQ(scalars.at("test.scalars.gauge"), -5.0);
}

TEST(HistogramState, MergeIsBucketWise) {
  MetricRegistry reg_a;
  MetricRegistry reg_b;
  Histogram a(reg_a, "test.hstate.latency_ns");
  Histogram b(reg_b, "test.hstate.latency_ns");
  for (int i = 0; i < 90; ++i) a.record(10);
  for (int i = 0; i < 10; ++i) b.record(1000);
  HistogramState merged = reg_a.histogram_states().at("test.hstate.latency_ns");
  merged.merge(reg_b.histogram_states().at("test.hstate.latency_ns"));
  EXPECT_EQ(merged.count, 100u);
  EXPECT_EQ(merged.sum, 90u * 10u + 10u * 1000u);
  EXPECT_EQ(merged.max, 1000u);
  EXPECT_GE(merged.percentile(0.99), 512.0);
  EXPECT_LE(merged.percentile(0.50), 16.0);
}

TEST(ScalarDelta, UnchangedSnapshotYieldsEmptyDelta) {
  const ScalarMap prev = {{"a.counter", 3.0}, {"b.gauge", -1.5}};
  EXPECT_TRUE(scalar_delta(prev, prev).empty());
}

TEST(ScalarDelta, CarriesAbsoluteValuesOfNewAndChangedSeries) {
  const ScalarMap prev = {{"a.counter", 3.0}, {"b.gauge", -1.5}};
  const ScalarMap cur = {{"a.counter", 7.0}, {"b.gauge", -1.5}, {"c.new", 1.0}};
  const ScalarMap delta = scalar_delta(prev, cur);
  EXPECT_EQ(delta.size(), 2u);
  EXPECT_DOUBLE_EQ(delta.at("a.counter"), 7.0);  // absolute, not +4
  EXPECT_DOUBLE_EQ(delta.at("c.new"), 1.0);
  ScalarMap base = prev;
  apply_delta(base, delta);
  EXPECT_EQ(base, cur);
}

TEST(ScalarDelta, ComparisonIsBitWiseSoCounterStepsNeverVanish) {
  // A counter stepping through every successive double must always produce a
  // delta entry, even where operator== would be lossy (-0.0 == 0.0) or false
  // (NaN != NaN would re-report an unchanged NaN under operator!=).
  const ScalarMap neg_zero = {{"x", -0.0}};
  const ScalarMap pos_zero = {{"x", 0.0}};
  const ScalarMap sign_flip = scalar_delta(neg_zero, pos_zero);
  ASSERT_EQ(sign_flip.size(), 1u);
  EXPECT_FALSE(std::signbit(sign_flip.at("x")));
  EXPECT_TRUE(scalar_delta(pos_zero, pos_zero).empty());

  // Monotone counter walk: every step reports exactly the changed series and
  // applying the stream of deltas reproduces the final state.
  ScalarMap state = {{"steps", 0.0}};
  ScalarMap shadow = state;
  for (int i = 1; i <= 64; ++i) {
    ScalarMap next = state;
    next["steps"] = static_cast<double>(i);
    const ScalarMap d = scalar_delta(state, next);
    ASSERT_EQ(d.size(), 1u) << "step " << i;
    apply_delta(shadow, d);
    state = next;
  }
  EXPECT_EQ(shadow, state);
}

TEST(HistogramDelta, MergeRoundTripReproducesCurExactly) {
  MetricRegistry reg;
  Histogram h(reg, "test.hdelta.latency_ns");
  for (int i = 0; i < 50; ++i) h.record(10);
  const HistogramState prev = reg.histogram_states().at("test.hdelta.latency_ns");
  for (int i = 0; i < 25; ++i) h.record(5000);
  h.record(123456);
  const HistogramState cur = reg.histogram_states().at("test.hdelta.latency_ns");

  const HistogramState delta = histogram_delta(prev, cur);
  EXPECT_EQ(delta.count, cur.count - prev.count);
  EXPECT_EQ(delta.sum, cur.sum - prev.sum);
  EXPECT_EQ(delta.max, cur.max);  // max is not subtractive

  HistogramState rebuilt = prev;
  rebuilt.merge(delta);
  EXPECT_EQ(rebuilt.buckets, cur.buckets);
  EXPECT_EQ(rebuilt.count, cur.count);
  EXPECT_EQ(rebuilt.sum, cur.sum);
  EXPECT_EQ(rebuilt.max, cur.max);
}

TEST(HistogramDelta, EmptyWhenNothingRecordedBetweenSnapshots) {
  MetricRegistry reg;
  Histogram h(reg, "test.hdelta.idle_ns");
  h.record(42);
  const HistogramState prev = reg.histogram_states().at("test.hdelta.idle_ns");
  const HistogramState delta = histogram_delta(prev, prev);
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(delta.sum, 0u);
  for (const auto bucket : delta.buckets) EXPECT_EQ(bucket, 0u);
}

TEST(Determinism, DefaultsToExactAndAddScalarsFiltersByClass) {
  MetricRegistry reg;
  Counter exact(reg, "test.class.exact");
  Counter warm(reg, "test.class.warm", Determinism::CacheWarmth);
  Gauge checkpoint(reg, "test.class.checkpoint", Determinism::Checkpoint);
  exact.inc(2);
  warm.inc(3);
  checkpoint.set(4);
  EXPECT_EQ(exact.determinism(), Determinism::Exact);

  std::map<std::string, double> all{{"test.class.exact", 1.0}};
  reg.add_scalars(all);
  EXPECT_EQ(all, (std::map<std::string, double>{{"test.class.checkpoint", 4.0},
                                                {"test.class.exact", 3.0},
                                                {"test.class.warm", 3.0}}));
  std::map<std::string, double> exact_only;
  reg.add_scalars(exact_only, /*exact_only=*/true);
  EXPECT_EQ(exact_only,
            (std::map<std::string, double>{{"test.class.exact", 2.0}}));
}

// One definition of replay-exact: a live fleet's fingerprint is exactly the
// set of its scalar series whose instruments are declared Exact.
TEST(Determinism, LiveFingerprintIsTheExactSet) {
  // The classes a fleet home's instruments declare, read off the same stack
  // built standalone: scenario, router, a device and the fault surfaces.
  std::map<std::string, Determinism> classes;
  {
    MetricRegistry reg;
    ScopedMetricRegistry scope(reg);
    workload::HomeScenario::Config sc;
    sc.seed = 3;
    workload::HomeScenario home(sc, reg);
    home.start();
    home.add_device({"laptop", workload::DeviceKind::Laptop, std::nullopt});
    sim::FaultInjector faults(home.loop());
    home.router().attach_faults(faults);
    reg.visit([&](const Instrument& i) {
      if (i.kind() != MetricKind::Histogram) {
        classes.emplace(i.name(), i.determinism());
      }
    });
  }

  live::LiveConfig cfg;
  cfg.homes = 2;
  cfg.seed = 3;
  live::LiveFleet fleet(cfg);
  fleet.start();
  fleet.advance_to(3 * kSecond);
  const auto scalars = fleet.scalars();
  const auto fingerprint = fleet.fingerprint();

  std::set<std::string> exact;
  std::set<std::string> fleet_only;
  for (const auto& [name, value] : scalars) {
    const auto it = classes.find(name);
    if (it == classes.end()) fleet_only.insert(name);
    if (it == classes.end() || it->second == Determinism::Exact) {
      exact.insert(name);
    }
  }
  std::set<std::string> fingerprinted;
  for (const auto& [name, value] : fingerprint) fingerprinted.insert(name);
  EXPECT_EQ(fingerprinted, exact);
  // The only series the standalone stack lacks are the fleet's own
  // per-home gauges, which keep the default class.
  for (const std::string& name : fleet_only) {
    EXPECT_EQ(name.rfind("live.home.", 0), 0u) << name;
  }
  // The declared exceptions, and the export counters the change-only
  // Metrics export must keep replay-exact.
  for (const char* name :
       {"snapshot.captures", "snapshot.restores",
        "openflow.datapath.microflow_hits", "openflow.datapath.buffer_evictions",
        "openflow.flow_table.subtable_scans"}) {
    EXPECT_EQ(scalars.count(name), 1u) << name;
    EXPECT_EQ(fingerprint.count(name), 0u) << name;
  }
  for (const char* name :
       {"hwdb.database.inserts", "homework.metrics_export.rows_exported",
        "openflow.flow_table.lookups", "live.home.attack_sent"}) {
    EXPECT_EQ(fingerprint.count(name), 1u) << name;
  }
}

}  // namespace
}  // namespace hw::telemetry
