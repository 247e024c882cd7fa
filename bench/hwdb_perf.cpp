// hwdb performance: the quantitative claims behind the measurement plane
// (companion paper: Sventek et al., IM 2011). Insert throughput, query cost
// vs window size, aggregation cost, subscription fan-out, the
// constant-memory steady state of the ephemeral tables, and the heap bytes
// a stored row costs.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdlib>
#include <new>

#include "homework/event_export.hpp"
#include "homework/metrics_export.hpp"
#include "hwdb/database.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"

// Heap bytes held, net of the ones freed, while counting is on.
static bool g_count_bytes = false;
static std::int64_t g_live_bytes = 0;

// The free() calls pair with the malloc() in the replacement operator new;
// GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_count_bytes) g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}
void operator delete(void* p) noexcept {
  if (g_count_bytes && p != nullptr) {
    g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop

using namespace hw;
using namespace hw::hwdb;

namespace {

/// Reports insert latency percentiles from the database's registry
/// histogram — the same instrument MetricsExport publishes into hwdb.
void report_insert_latency(benchmark::State& state, const Database& db) {
  const telemetry::Histogram& h = db.stats().insert_ns;
  state.counters["insert_p50_ns"] = h.percentile(0.50);
  state.counters["insert_p99_ns"] = h.percentile(0.99);
}

Schema flows_schema() {
  return Schema("Flows", {{"device", ColumnType::Text},
                          {"app", ColumnType::Text},
                          {"bytes", ColumnType::Int}});
}

/// Fills a table with `rows` entries spaced 1 ms apart ending at `end`.
void fill(Database& db, std::size_t rows, Rng& rng) {
  static const char* kApps[] = {"web", "dns", "streaming", "voip"};
  for (std::size_t i = 0; i < rows; ++i) {
    db.loop().run_for(kMillisecond);
    db.insert("Flows",
              {Value{"dev-" + std::to_string(rng.uniform(8))},
               Value{kApps[rng.uniform(4)]},
               Value{static_cast<std::int64_t>(rng.uniform(10000))}});
  }
}

void BM_Insert(benchmark::State& state) {
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 65536);
  Rng rng(1);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.insert("Flows", {Value{"dev"}, Value{"web"}, Value{i++}}));
  }
  state.SetItemsProcessed(state.iterations());
  report_insert_latency(state, db);
}
BENCHMARK(BM_Insert);

void BM_InsertEvicting(benchmark::State& state) {
  // Ring full: every insert also evicts — steady-state of a long-lived home.
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 1024);
  Rng rng(1);
  fill(db, 1024, rng);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.insert("Flows", {Value{"dev"}, Value{"web"}, Value{i++}}));
  }
  state.SetItemsProcessed(state.iterations());
  report_insert_latency(state, db);
}
BENCHMARK(BM_InsertEvicting);

void BM_QueryWindow(benchmark::State& state) {
  // Cost of a RANGE window scan vs window length (table holds ~60 s of
  // 1 kHz data; windows of 1/4/16/64 s).
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 65536);
  Rng rng(1);
  fill(db, 60000, rng);
  const std::string query = "SELECT * FROM Flows [RANGE " +
                            std::to_string(state.range(0)) + " SECONDS]";
  for (auto _ : state) {
    auto rs = db.query(query);
    benchmark::DoNotOptimize(rs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryWindow)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_QueryRows(benchmark::State& state) {
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 65536);
  Rng rng(1);
  fill(db, 60000, rng);
  const std::string query =
      "SELECT * FROM Flows [ROWS " + std::to_string(state.range(0)) + "]";
  for (auto _ : state) {
    auto rs = db.query(query);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_QueryRows)->Arg(10)->Arg(100)->Arg(1000);

void BM_GroupByAggregate(benchmark::State& state) {
  // The Figure 1 display's query: per-device per-app sums over a window.
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 65536);
  Rng rng(1);
  fill(db, 60000, rng);
  const std::string query =
      "SELECT device, app, sum(bytes) FROM Flows [RANGE " +
      std::to_string(state.range(0)) +
      " SECONDS] GROUP BY device, app";
  for (auto _ : state) {
    auto rs = db.query(query);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_GroupByAggregate)->Arg(10)->Arg(60);

void BM_WherePredicate(benchmark::State& state) {
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 65536);
  Rng rng(1);
  fill(db, 20000, rng);
  for (auto _ : state) {
    auto rs = db.query(
        "SELECT * FROM Flows [RANGE 10 SECONDS] "
        "WHERE app = 'web' AND bytes > 5000");
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_WherePredicate);

void BM_ParseQuery(benchmark::State& state) {
  for (auto _ : state) {
    auto q = parse_query(
        "SELECT device, app, sum(bytes), count(*) FROM Flows "
        "[RANGE 30 SECONDS] WHERE bytes > 100 AND (app = 'web' OR app = 'dns') "
        "GROUP BY device, app");
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseQuery);

void BM_AsOfJoin(benchmark::State& state) {
  // The Figure-1-with-names query: join the Flows window against the Leases
  // history to label devices. Window of `arg` seconds at 1 kHz.
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 65536);
  (void)db.create_table(
      Schema("Leases", {{"mac", ColumnType::Text}, {"hostname", ColumnType::Text}}),
      256);
  Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    db.insert("Leases", {Value{"dev-" + std::to_string(i)},
                         Value{"host-" + std::to_string(i)}});
  }
  fill(db, 30000, rng);
  const std::string query =
      "SELECT hostname, sum(bytes) FROM Flows [RANGE " +
      std::to_string(state.range(0)) +
      " SECONDS] JOIN Leases ON device = mac GROUP BY hostname";
  for (auto _ : state) {
    auto rs = db.query(query);
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_AsOfJoin)->Arg(1)->Arg(10);

void BM_SubscriptionFanout(benchmark::State& state) {
  // Cost of one insert when N on-insert continuous queries are registered —
  // the paper's displays all subscribe to the same plane.
  sim::EventLoop loop;
  Database db(loop);
  (void)db.create_table(flows_schema(), 4096);
  const int subscribers = static_cast<int>(state.range(0));
  for (int i = 0; i < subscribers; ++i) {
    (void)db.subscribe("SELECT device, sum(bytes) FROM Flows [ROWS 64] "
                       "GROUP BY device",
                       SubscriptionMode::OnInsert, 0,
                       [](SubscriptionId, const ResultSet&) {});
  }
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db.insert("Flows", {Value{"dev"}, Value{"web"}, Value{i++}}));
  }
  state.SetItemsProcessed(state.iterations());
  report_insert_latency(state, db);
}
BENCHMARK(BM_SubscriptionFanout)->Arg(0)->Arg(1)->Arg(4)->Arg(16);

/// Heap bytes per stored row of a standard table (0 = Metrics, 1 = Flows),
/// filled to 4,096 rows with a home's variety: 133 series names, or 8
/// devices' flows to 64 servers. Counts the table's storage, its text pool
/// and the database's bookkeeping for it.
void BM_BytesPerRow(benchmark::State& state) {
  constexpr std::size_t kRows = 4096;
  const bool flows = state.range(0) == 1;
  static const char* kApps[] = {"web", "dns", "streaming", "voip", "other"};
  static const char* kKinds[] = {"counter", "gauge", "histogram.p99"};
  Rng rng(1);
  std::vector<std::vector<Value>> rows;
  rows.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    if (flows) {
      const auto device = rng.uniform(8);
      const auto server = rng.uniform(64);
      rows.push_back({Value{"02:00:00:00:00:0" + std::to_string(device)},
                      Value{"192.168.1." + std::to_string(100 + device)},
                      Value{"93.184." + std::to_string(server) + ".34"},
                      Value{17}, Value{rng.uniform_range(1024, 65535)},
                      Value{443}, Value{kApps[rng.uniform(5)]},
                      Value{rng.uniform_range(64, 150000)},
                      Value{rng.uniform_range(1, 100)}});
    } else {
      const auto series = rng.uniform(133);
      rows.push_back({Value{"home.module.series_" + std::to_string(series)},
                      Value{kKinds[series % 3]}, Value{rng.uniform01() * 1e6}});
    }
  }
  double bytes_per_row = 0;
  for (auto _ : state) {
    sim::EventLoop loop;
    Database db(loop);
    const char* table = flows ? "Flows" : "Metrics";
    g_live_bytes = 0;
    g_count_bytes = true;
    if (flows) {
      homework::EventExport::Config config;
      config.flows_capacity = kRows;
      (void)homework::EventExport::create_tables(db, config);
    } else {
      homework::MetricsExport::Config config;
      config.capacity = kRows;
      (void)homework::MetricsExport::create_table(db, config);
    }
    for (const auto& row : rows) (void)db.insert(table, row);
    g_count_bytes = false;
    bytes_per_row = static_cast<double>(g_live_bytes) / kRows;
  }
  state.counters["bytes_per_row"] = bytes_per_row;
}
BENCHMARK(BM_BytesPerRow)->Arg(0)->Arg(1)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
