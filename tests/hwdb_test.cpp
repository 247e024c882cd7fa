// hwdb: typed tables of fixed-width records, the CQL-variant parser,
// windowed query execution with filters/grouping/aggregates, continuous
// queries, and the tables' storage against the previous Row-vector storage
// kept here as the oracle.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <unordered_map>

#include "hwdb/cql_parser.hpp"
#include "hwdb/database.hpp"
#include "hwdb/executor.hpp"
#include "homework/event_export.hpp"
#include "homework/metrics_export.hpp"
#include "ring_buffer.hpp"
#include "snapshot/codec.hpp"
#include "util/rand.hpp"
#include "util/strings.hpp"

// Calls to operator new, and the heap bytes they hold net of the ones freed,
// while counting is on.
static bool g_count_allocs = false;
static std::size_t g_alloc_calls = 0;
static std::int64_t g_live_bytes = 0;

// The free() calls pair with the malloc() in the replacement operator new;
// GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (g_count_allocs) {
    ++g_alloc_calls;
    g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  }
  return p;
}
void operator delete(void* p) noexcept {
  if (g_count_allocs && p != nullptr) {
    g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
#pragma GCC diagnostic pop

/// Counts operator new calls and net heap bytes over its lifetime.
struct AllocCount {
  AllocCount() {
    g_alloc_calls = 0;
    g_live_bytes = 0;
    g_count_allocs = true;
  }
  ~AllocCount() { g_count_allocs = false; }
  [[nodiscard]] std::size_t calls() const { return g_alloc_calls; }
  [[nodiscard]] std::int64_t live_bytes() const { return g_live_bytes; }
};

namespace hw::hwdb {
namespace {

Schema flows_schema() {
  return Schema("Flows", {{"device", ColumnType::Text},
                          {"app", ColumnType::Text},
                          {"bytes", ColumnType::Int},
                          {"rtt", ColumnType::Real}});
}

// ---------------------------------------------------------------------------
// Values

TEST(Value, TypesAndConversions) {
  EXPECT_EQ(Value{42}.type(), ColumnType::Int);
  EXPECT_EQ(Value{4.5}.type(), ColumnType::Real);
  EXPECT_EQ(Value{"x"}.type(), ColumnType::Text);
  EXPECT_EQ(Value::ts(9).type(), ColumnType::Ts);
  EXPECT_EQ(Value{42}.as_real(), 42.0);
  EXPECT_EQ(Value{4.5}.as_int(), 4);
  EXPECT_EQ(Value::ts(9).as_ts(), 9u);
  EXPECT_EQ(Value{"abc"}.as_text(), "abc");
}

TEST(Value, CompareNumericAndText) {
  EXPECT_EQ(Value{1}.compare(Value{2}), -1);
  EXPECT_EQ(Value{2.0}.compare(Value{2}), 0);  // cross-type numeric
  EXPECT_EQ(Value{"b"}.compare(Value{"a"}), 1);
  EXPECT_TRUE(Value{"x"} == Value{"x"});
  // A mixed pair compares renderings: "b" sorts after "1".
  EXPECT_EQ(Value{"b"}.compare(Value{1}), 1);
}

TEST(Value, FromString) {
  EXPECT_EQ(Value::from_string(ColumnType::Int, "-7").value().as_int(), -7);
  EXPECT_EQ(Value::from_string(ColumnType::Real, "2.5").value().as_real(), 2.5);
  EXPECT_EQ(Value::from_string(ColumnType::Text, "hi").value().as_text(), "hi");
  EXPECT_EQ(Value::from_string(ColumnType::Ts, "123").value().as_ts(), 123u);
  EXPECT_FALSE(Value::from_string(ColumnType::Int, "xyz").ok());
  EXPECT_FALSE(Value::from_string(ColumnType::Real, "1.2.3").ok());
}

// ---------------------------------------------------------------------------
// Tables

TEST(Table, InsertValidatesArityAndTypes) {
  Table t(flows_schema(), 8);
  EXPECT_TRUE(t.insert(0, {Value{"mac"}, Value{"web"}, Value{100}, Value{0.5}}).ok());
  EXPECT_FALSE(t.insert(0, {Value{"mac"}, Value{"web"}, Value{100}}).ok());
  // Text where Int expected: rejected.
  EXPECT_FALSE(
      t.insert(0, {Value{"mac"}, Value{"web"}, Value{"oops"}, Value{0.5}}).ok());
  // Int where Real expected: converted.
  EXPECT_TRUE(t.insert(0, {Value{"mac"}, Value{"web"}, Value{100}, Value{2}}).ok());
  EXPECT_EQ(t.newest().at(3).type(), ColumnType::Real);
}

TEST(Table, EphemeralFixedSize) {
  Table t(flows_schema(), 4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t.insert(static_cast<Timestamp>(i),
                 {Value{"m"}, Value{"web"}, Value{i}, Value{0.0}})
            .ok());
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.evicted(), 6u);
  EXPECT_EQ(t.inserted(), 10u);
  EXPECT_EQ(t.oldest().at(2).as_int(), 6);
  EXPECT_EQ(t.newest_ts(), 9u);
}

TEST(Schema, CaseInsensitiveColumnLookup) {
  const Schema s = flows_schema();
  EXPECT_EQ(s.column_index("BYTES"), 2);
  EXPECT_EQ(s.column_index("Device"), 0);
  EXPECT_EQ(s.column_index("nope"), -1);
}

// ---------------------------------------------------------------------------
// CQL parser

TEST(CqlParser, SelectStar) {
  auto q = parse_query("SELECT * FROM Flows");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().projections.empty());
  EXPECT_EQ(q.value().table, "Flows");
  EXPECT_EQ(q.value().window.kind, Window::Kind::All);
}

TEST(CqlParser, Columns) {
  auto q = parse_query("select device, bytes from Flows");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q.value().projections.size(), 2u);
  EXPECT_EQ(q.value().projections[0].column, "device");
  EXPECT_EQ(q.value().projections[1].column, "bytes");
}

TEST(CqlParser, Windows) {
  EXPECT_EQ(parse_query("SELECT * FROM t [RANGE 30 SECONDS]").value().window.kind,
            Window::Kind::Range);
  EXPECT_EQ(parse_query("SELECT * FROM t [RANGE 30 SECONDS]").value().window.amount,
            30u);
  EXPECT_EQ(parse_query("SELECT * FROM t [RANGE 2 MINUTES]").value().window.amount,
            120u);
  EXPECT_EQ(parse_query("SELECT * FROM t [RANGE 1 HOUR]").value().window.amount,
            3600u);
  EXPECT_EQ(parse_query("SELECT * FROM t [ROWS 5]").value().window.kind,
            Window::Kind::Rows);
  EXPECT_EQ(parse_query("SELECT * FROM t [NOW]").value().window.kind,
            Window::Kind::Now);
  EXPECT_EQ(parse_query("SELECT * FROM t [SINCE 1000]").value().window.amount,
            1000u);
}

TEST(CqlParser, WhereTree) {
  auto q = parse_query(
      "SELECT * FROM Flows WHERE (app = 'web' OR app = 'dns') AND bytes > 100 "
      "AND NOT device CONTAINS 'ff'");
  ASSERT_TRUE(q.ok());
  ASSERT_NE(q.value().where, nullptr);
  EXPECT_EQ(q.value().where->kind, Predicate::Kind::And);
}

TEST(CqlParser, AggregatesAndGroupBy) {
  auto q = parse_query(
      "SELECT device, sum(bytes), avg(rtt), count(*) FROM Flows "
      "[RANGE 10 SECONDS] GROUP BY device");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q.value().projections.size(), 4u);
  EXPECT_EQ(q.value().projections[1].fn, AggFn::Sum);
  EXPECT_EQ(q.value().projections[2].fn, AggFn::Avg);
  EXPECT_EQ(q.value().projections[3].fn, AggFn::Count);
  EXPECT_EQ(q.value().projections[3].column, "*");
  EXPECT_EQ(q.value().group_by, (std::vector<std::string>{"device"}));
  EXPECT_TRUE(q.value().has_aggregates());
}

TEST(CqlParser, LastAggregate) {
  auto q = parse_query("SELECT mac, last(rssi) FROM Links GROUP BY mac");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().projections[1].fn, AggFn::Last);
}

TEST(CqlParser, Errors) {
  EXPECT_FALSE(parse_query("").ok());
  EXPECT_FALSE(parse_query("SELEC * FROM t").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM t [RANGE]").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM t [RANGE 5]").ok());          // no unit
  EXPECT_FALSE(parse_query("SELECT * FROM t [BOGUS 5]").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM t WHERE").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM t WHERE a >").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM t WHERE a ?? 1").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM t trailing").ok());
  EXPECT_FALSE(parse_query("SELECT bogus(x) FROM t").ok());
  EXPECT_FALSE(parse_query("SELECT sum(*) FROM t").ok());
  // Ungrouped plain column alongside an aggregate.
  EXPECT_FALSE(parse_query("SELECT device, sum(bytes) FROM t").ok());
  // SELECT * with GROUP BY is ambiguous.
  EXPECT_FALSE(parse_query("SELECT * FROM t GROUP BY a").ok());
}

// ---------------------------------------------------------------------------
// Executor

struct ExecutorFixture : ::testing::Test {
  ExecutorFixture() : table(flows_schema(), 64) {
    // 10 rows, one per second: devices alternate, apps cycle.
    for (int i = 0; i < 10; ++i) {
      const char* device = i % 2 == 0 ? "mac-a" : "mac-b";
      const char* app = i % 3 == 0 ? "web" : (i % 3 == 1 ? "dns" : "streaming");
      EXPECT_TRUE(table
                      .insert(static_cast<Timestamp>(i) * kSecond,
                              {Value{device}, Value{app}, Value{(i + 1) * 100},
                               Value{static_cast<double>(i) / 10}})
                      .ok());
    }
  }

  ResultSet run(const std::string& text, Timestamp now = 9 * kSecond) {
    auto q = parse_query(text);
    EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error().message);
    auto rs = execute(q.value(), table, now);
    EXPECT_TRUE(rs.ok()) << (rs.ok() ? "" : rs.error().message);
    return std::move(rs).take();
  }

  Table table;
};

TEST_F(ExecutorFixture, SelectStarChronological) {
  auto rs = run("SELECT * FROM Flows");
  EXPECT_EQ(rs.rows.size(), 10u);
  EXPECT_EQ(rs.columns[0], "ts");
  EXPECT_EQ(rs.columns[1], "device");
  // Oldest first.
  EXPECT_LT(rs.rows.front()[0].as_ts(), rs.rows.back()[0].as_ts());
}

TEST_F(ExecutorFixture, RangeWindow) {
  // now=9s; RANGE 3 SECONDS keeps ts >= 6s → rows 6,7,8,9.
  auto rs = run("SELECT * FROM Flows [RANGE 3 SECONDS]");
  EXPECT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(rs.rows.front()[0].as_ts(), 6 * kSecond);
}

TEST_F(ExecutorFixture, RowsWindow) {
  auto rs = run("SELECT bytes FROM Flows [ROWS 3]");
  ASSERT_EQ(rs.rows.size(), 3u);
  // The newest three, in chronological order.
  EXPECT_EQ(rs.rows[0][0].as_int(), 800);
  EXPECT_EQ(rs.rows[2][0].as_int(), 1000);
}

TEST_F(ExecutorFixture, NowWindow) {
  auto rs = run("SELECT bytes FROM Flows [NOW]");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_int(), 1000);
}

TEST_F(ExecutorFixture, SinceWindow) {
  auto rs = run("SELECT * FROM Flows [SINCE 8000000]");
  EXPECT_EQ(rs.rows.size(), 2u);
}

TEST_F(ExecutorFixture, WhereFilters) {
  EXPECT_EQ(run("SELECT * FROM Flows WHERE device = 'mac-a'").rows.size(), 5u);
  EXPECT_EQ(run("SELECT * FROM Flows WHERE bytes > 500").rows.size(), 5u);
  EXPECT_EQ(run("SELECT * FROM Flows WHERE bytes >= 500").rows.size(), 6u);
  EXPECT_EQ(run("SELECT * FROM Flows WHERE app != 'web'").rows.size(), 6u);
  EXPECT_EQ(
      run("SELECT * FROM Flows WHERE device = 'mac-a' AND app = 'web'").rows.size(),
      2u);
  EXPECT_EQ(
      run("SELECT * FROM Flows WHERE app = 'web' OR app = 'dns'").rows.size(), 7u);
  EXPECT_EQ(run("SELECT * FROM Flows WHERE NOT app = 'web'").rows.size(), 6u);
  EXPECT_EQ(run("SELECT * FROM Flows WHERE device CONTAINS '-a'").rows.size(), 5u);
  EXPECT_EQ(run("SELECT * FROM Flows WHERE ts >= 8000000").rows.size(), 2u);
}

TEST_F(ExecutorFixture, WhereUnknownColumnErrors) {
  auto q = parse_query("SELECT * FROM Flows WHERE nosuch = 1");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(execute(q.value(), table, 0).ok());
}

TEST_F(ExecutorFixture, GlobalAggregates) {
  auto rs = run("SELECT sum(bytes), count(*), min(bytes), max(bytes), avg(bytes) "
                "FROM Flows GROUP BY app");
  // Three apps → three rows; verify via a total-only query instead:
  EXPECT_EQ(rs.rows.size(), 3u);
}

TEST_F(ExecutorFixture, GroupBySums) {
  auto rs = run("SELECT device, sum(bytes) FROM Flows GROUP BY device");
  ASSERT_EQ(rs.rows.size(), 2u);
  std::int64_t total = 0;
  for (const auto& row : rs.rows) total += row[1].as_int();
  EXPECT_EQ(total, 100 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 10));
  // mac-a holds rows 0,2,4,6,8 → (1+3+5+7+9)*100 = 2500.
  for (const auto& row : rs.rows) {
    if (row[0].as_text() == "mac-a") {
      EXPECT_EQ(row[1].as_int(), 2500);
    }
  }
}

TEST_F(ExecutorFixture, GroupByMultipleKeys) {
  auto rs = run("SELECT device, app, count(*) FROM Flows GROUP BY device, app");
  EXPECT_EQ(rs.rows.size(), 6u);  // 2 devices × 3 apps (all combinations hit)
}

TEST_F(ExecutorFixture, LastPicksNewest) {
  auto rs = run("SELECT device, last(bytes) FROM Flows GROUP BY device");
  for (const auto& row : rs.rows) {
    if (row[0].as_text() == "mac-a") {
      EXPECT_EQ(row[1].as_int(), 900);  // row 8
    }
    if (row[0].as_text() == "mac-b") {
      EXPECT_EQ(row[1].as_int(), 1000);  // row 9
    }
  }
}

TEST_F(ExecutorFixture, MinMaxAvg) {
  auto rs = run("SELECT min(bytes), max(bytes), avg(bytes) FROM Flows "
                "[RANGE 100 SECONDS] GROUP BY device");
  ASSERT_EQ(rs.rows.size(), 2u);
}

TEST_F(ExecutorFixture, WindowAndWhereCompose) {
  auto rs = run(
      "SELECT device, sum(bytes) FROM Flows [RANGE 5 SECONDS] "
      "WHERE device = 'mac-b' GROUP BY device");
  ASSERT_EQ(rs.rows.size(), 1u);
  // now=9s, range keeps ts>=4s: mac-b rows 5,7,9 → (6+8+10)*100.
  EXPECT_EQ(rs.rows[0][1].as_int(), 2400);
}

TEST_F(ExecutorFixture, EmptyWindowEmptyResult) {
  auto rs = run("SELECT * FROM Flows [SINCE 99000000]");
  EXPECT_TRUE(rs.rows.empty());
  auto agg = run("SELECT count(*) FROM Flows [SINCE 99000000] GROUP BY device");
  EXPECT_TRUE(agg.rows.empty());
}

TEST_F(ExecutorFixture, LimitKeepsNewestRows) {
  auto rs = run("SELECT bytes FROM Flows LIMIT 3");
  ASSERT_EQ(rs.rows.size(), 3u);
  // The chronological tail: rows 7,8,9 → bytes 800,900,1000.
  EXPECT_EQ(rs.rows[0][0].as_int(), 800);
  EXPECT_EQ(rs.rows[2][0].as_int(), 1000);
  // LIMIT larger than the result is a no-op.
  EXPECT_EQ(run("SELECT bytes FROM Flows LIMIT 99").rows.size(), 10u);
}

TEST_F(ExecutorFixture, LimitCapsGroups) {
  auto rs = run("SELECT device, count(*) FROM Flows GROUP BY device LIMIT 1");
  EXPECT_EQ(rs.rows.size(), 1u);
}

TEST_F(ExecutorFixture, LimitParseErrors) {
  EXPECT_FALSE(parse_query("SELECT * FROM Flows LIMIT").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM Flows LIMIT 0").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM Flows LIMIT x").ok());
}

TEST_F(ExecutorFixture, StddevAggregate) {
  // bytes are 100..1000 per device; stddev of mac-a's {100,300,500,700,900}
  // is sqrt(80000) ≈ 282.84.
  auto rs = run("SELECT device, stddev(bytes) FROM Flows GROUP BY device");
  ASSERT_EQ(rs.rows.size(), 2u);
  for (const auto& row : rs.rows) {
    if (row[0].as_text() == "mac-a") {
      EXPECT_NEAR(row[1].as_real(), 282.8427, 0.01);
    }
  }
  // Constant series → stddev 0.
  auto zero = run("SELECT stddev(bytes) FROM Flows WHERE bytes = 500 "
                  "GROUP BY device");
  ASSERT_EQ(zero.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(zero.rows[0][0].as_real(), 0.0);
}

TEST(ExecutorGroupKeys, SeparatorAndNulBytesKeepTuplesApart) {
  // Hostnames come from DHCP clients, so key text may hold any byte: a
  // tuple whose values contain a separator or NUL must not fold into a
  // tuple that splits the same bytes differently.
  Table leases(Schema("Leases", {{"mac", ColumnType::Text},
                                 {"hostname", ColumnType::Text}}),
               8);
  const std::string nul(1, '\0');
  ASSERT_TRUE(leases.insert(1, {Value{"a\x1f" "b"}, Value{"c"}}).ok());
  ASSERT_TRUE(leases.insert(2, {Value{"a"}, Value{"b\x1f" "c"}}).ok());
  ASSERT_TRUE(leases.insert(3, {Value{"x" + nul}, Value{"y"}}).ok());
  ASSERT_TRUE(leases.insert(4, {Value{"x"}, Value{nul + "y"}}).ok());
  auto q = parse_query(
      "SELECT mac, hostname, count(*) FROM Leases GROUP BY mac, hostname");
  ASSERT_TRUE(q.ok());
  auto rs = execute(q.value(), leases, 5);
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 4u);
  // Groups come out in tuple order of the values.
  const std::vector<std::pair<std::string, std::string>> want = {
      {"a", "b\x1f" "c"}, {"a\x1f" "b", "c"}, {"x", nul + "y"}, {"x" + nul, "y"}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& row = rs.value().rows[i];
    EXPECT_EQ(row[0].as_text(), want[i].first) << i;
    EXPECT_EQ(row[1].as_text(), want[i].second) << i;
    EXPECT_EQ(row[2].as_int(), 1) << i;
  }
}

TEST_F(ExecutorFixture, ResultSetHelpers) {
  auto rs = run("SELECT device, bytes FROM Flows [ROWS 1]");
  EXPECT_EQ(rs.column_index("BYTES"), 1);
  EXPECT_EQ(rs.column_index("none"), -1);
  EXPECT_NE(rs.to_string().find("device\tbytes"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Temporal joins ("relational operations" in the paper's description)

TEST(CqlParser, JoinClause) {
  auto q = parse_query(
      "SELECT hostname, sum(bytes) FROM Flows [RANGE 10 SECONDS] "
      "JOIN Leases ON device = mac GROUP BY hostname");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q.value().join.has_value());
  EXPECT_EQ(q.value().join->table, "Leases");
  EXPECT_EQ(q.value().join->left_column, "device");
  EXPECT_EQ(q.value().join->right_column, "mac");
}

TEST(CqlParser, JoinQualifiedOnColumns) {
  auto q = parse_query(
      "SELECT device FROM Flows JOIN Leases ON Flows.device = Leases.mac "
      "GROUP BY device");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().join->left_column, "device");
  EXPECT_EQ(q.value().join->right_column, "mac");
}

TEST(CqlParser, JoinErrors) {
  EXPECT_FALSE(parse_query("SELECT * FROM a JOIN").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM a JOIN b").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM a JOIN b ON x").ok());
  EXPECT_FALSE(parse_query("SELECT * FROM a JOIN b ON x > y").ok());
}

struct JoinFixture : ::testing::Test {
  JoinFixture() : db(loop) {
    EXPECT_TRUE(db.create_table(flows_schema(), 64).ok());
    EXPECT_TRUE(db.create_table(Schema("Leases", {{"mac", ColumnType::Text},
                                                  {"hostname", ColumnType::Text}}),
                                16)
                    .ok());
    // Chronological event stream (virtual time cannot rewind):
    //   t=0 lease m1="laptop", t=1 flow m1, t=2 lease m2="phone",
    //   t=3 flow m2, t=5 lease m1 renamed "toms-laptop", t=6 flow m1,
    //   t=7 flow from unknown m3.
    insert_at(0, "Leases", {Value{"m1"}, Value{"laptop"}});
    insert_at(1, "Flows", {Value{"m1"}, Value{"web"}, Value{100}, Value{0.0}});
    insert_at(2, "Leases", {Value{"m2"}, Value{"phone"}});
    insert_at(3, "Flows", {Value{"m2"}, Value{"dns"}, Value{50}, Value{0.0}});
    insert_at(5, "Leases", {Value{"m1"}, Value{"toms-laptop"}});
    insert_at(6, "Flows", {Value{"m1"}, Value{"web"}, Value{200}, Value{0.0}});
    insert_at(7, "Flows", {Value{"m3"}, Value{"web"}, Value{10}, Value{0.0}});
  }

  void insert_at(int second, const std::string& table, std::vector<Value> v) {
    loop.run_until(static_cast<Timestamp>(second) * kSecond);
    ASSERT_TRUE(db.insert(table, refs(v)).ok());
  }

  sim::EventLoop loop;
  Database db;
};

TEST_F(JoinFixture, AsOfSemanticsPickContemporaryRow) {
  auto rs = db.query(
      "SELECT device, hostname, bytes FROM Flows JOIN Leases ON device = mac");
  ASSERT_TRUE(rs.ok());
  // m3 has no lease → dropped; three joined rows remain, chronological.
  ASSERT_EQ(rs.value().rows.size(), 3u);
  // t=1 flow joins the t=0 lease ("laptop"), not the later rename.
  EXPECT_EQ(rs.value().rows[0][1].as_text(), "laptop");
  // t=3 flow (m2) joins "phone".
  EXPECT_EQ(rs.value().rows[1][1].as_text(), "phone");
  // t=6 flow joins the t=5 rename ("toms-laptop").
  EXPECT_EQ(rs.value().rows[2][1].as_text(), "toms-laptop");
}

TEST_F(JoinFixture, JoinWithGroupByAndAggregates) {
  auto rs = db.query(
      "SELECT hostname, sum(bytes) FROM Flows JOIN Leases ON device = mac "
      "GROUP BY hostname");
  ASSERT_TRUE(rs.ok());
  std::map<std::string, std::int64_t> by_host;
  for (const auto& row : rs.value().rows) {
    by_host[row[0].as_text()] = row[1].as_int();
  }
  EXPECT_EQ(by_host["laptop"], 100);
  EXPECT_EQ(by_host["toms-laptop"], 200);
  EXPECT_EQ(by_host["phone"], 50);
}

TEST_F(JoinFixture, JoinRespectsWindowAndWhere) {
  // now = 7s; RANGE 5 keeps flows with ts >= 2s.
  auto rs = db.query(
      "SELECT device, hostname FROM Flows [RANGE 5 SECONDS] "
      "JOIN Leases ON device = mac WHERE hostname CONTAINS 'lap'");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][1].as_text(), "toms-laptop");
}

TEST_F(JoinFixture, QualifiedProjectionsResolveBothSides) {
  auto rs = db.query(
      "SELECT Flows.device, Leases.hostname FROM Flows "
      "JOIN Leases ON device = mac [ROWS 100]");
  // Window comes before JOIN in the grammar; this should fail to parse...
  EXPECT_FALSE(rs.ok());
  rs = db.query(
      "SELECT Flows.device, Leases.hostname FROM Flows [ROWS 100] "
      "JOIN Leases ON device = mac");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().columns[0], "Flows.device");
  EXPECT_EQ(rs.value().rows.size(), 3u);
}

TEST_F(JoinFixture, SelectStarQualifiesColumns) {
  auto rs = db.query("SELECT * FROM Flows JOIN Leases ON device = mac");
  ASSERT_TRUE(rs.ok());
  // ts + 4 Flows columns + 2 Leases columns.
  ASSERT_EQ(rs.value().columns.size(), 7u);
  EXPECT_EQ(rs.value().columns[1], "Flows.device");
  EXPECT_EQ(rs.value().columns[6], "Leases.hostname");
}

TEST_F(JoinFixture, JoinAgainstMissingTableFails) {
  EXPECT_FALSE(db.query("SELECT * FROM Flows JOIN Ghost ON device = mac").ok());
  EXPECT_FALSE(
      db.query("SELECT * FROM Flows JOIN Leases ON nosuch = mac").ok());
  EXPECT_FALSE(
      db.query("SELECT * FROM Flows JOIN Leases ON device = nosuch").ok());
}

// ---------------------------------------------------------------------------
// Database + subscriptions

struct DatabaseFixture : ::testing::Test {
  DatabaseFixture() : db(loop) {
    EXPECT_TRUE(db.create_table(flows_schema(), 128).ok());
  }
  sim::EventLoop loop;
  Database db;
};

TEST_F(DatabaseFixture, CreateDuplicateFails) {
  EXPECT_FALSE(db.create_table(flows_schema(), 16).ok());
  EXPECT_FALSE(db.create_table(Schema("Empty", {}), 0).ok());
  EXPECT_EQ(db.table_names(), (std::vector<std::string>{"Flows"}));
}

TEST_F(DatabaseFixture, InsertStampsVirtualTime) {
  loop.run_until(5 * kSecond);
  ASSERT_TRUE(db.insert("Flows", {Value{"m"}, Value{"web"}, Value{1}, Value{0.0}})
                  .ok());
  EXPECT_EQ(db.table("Flows")->newest_ts(), 5 * kSecond);
  EXPECT_FALSE(db.insert("NoTable", {}).ok());
  EXPECT_EQ(db.stats().inserts.value(), 1u);
  EXPECT_EQ(db.stats().insert_errors.value(), 1u);
}

TEST_F(DatabaseFixture, QueryText) {
  db.insert("Flows", {Value{"m"}, Value{"web"}, Value{1}, Value{0.0}});
  auto rs = db.query("SELECT device FROM Flows");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);
  EXPECT_FALSE(db.query("SELECT device FROM Nope").ok());
  EXPECT_FALSE(db.query("garbage").ok());
}

TEST_F(DatabaseFixture, PeriodicSubscriptionFires) {
  int fires = 0;
  std::size_t last_rows = 0;
  auto sub = db.subscribe("SELECT * FROM Flows [RANGE 10 SECONDS]",
                          SubscriptionMode::Periodic, kSecond,
                          [&](SubscriptionId, const ResultSet& rs) {
                            ++fires;
                            last_rows = rs.rows.size();
                          });
  ASSERT_TRUE(sub.ok());
  db.insert("Flows", {Value{"m"}, Value{"web"}, Value{1}, Value{0.0}});
  loop.run_for(3 * kSecond + kMillisecond);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(last_rows, 1u);

  db.unsubscribe(sub.value());
  loop.run_for(3 * kSecond);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(db.subscription_count(), 0u);
}

TEST_F(DatabaseFixture, OnInsertSubscriptionFiresPerInsert) {
  int fires = 0;
  auto sub = db.subscribe("SELECT count(*) FROM Flows GROUP BY device",
                          SubscriptionMode::OnInsert, 0,
                          [&](SubscriptionId, const ResultSet&) { ++fires; });
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 4; ++i) {
    db.insert("Flows", {Value{"m"}, Value{"web"}, Value{i}, Value{0.0}});
  }
  EXPECT_EQ(fires, 4);
}

TEST_F(DatabaseFixture, SubscriptionValidation) {
  EXPECT_FALSE(db.subscribe("garbage", SubscriptionMode::Periodic, kSecond,
                            [](SubscriptionId, const ResultSet&) {})
                   .ok());
  EXPECT_FALSE(db.subscribe("SELECT * FROM Ghost", SubscriptionMode::Periodic,
                            kSecond, [](SubscriptionId, const ResultSet&) {})
                   .ok());
  EXPECT_FALSE(db.subscribe("SELECT * FROM Flows", SubscriptionMode::Periodic, 0,
                            [](SubscriptionId, const ResultSet&) {})
                   .ok());
}


// ---------------------------------------------------------------------------
// Differential property: the executor against the render-per-row oracle

namespace oracle {

// The executor's previous pipeline, kept as the oracle: it renders every
// GROUP BY value into a '\x1f'-joined string key per row, copies each value
// into every accumulator, re-resolves WHERE columns per row and builds a
// combined row per joined row. Its one known fault, keys that collide when
// text holds the separator byte, stays out of reach of the generated
// (printable) text. It reads OracleTable, the tables' previous storage.

/// One stored event as the previous storage held it.
struct Row {
  Timestamp ts = 0;
  std::vector<Value> values;
};

/// The table's previous storage, kept as the oracle: each row a heap Row
/// of Values in a RingBuffer.
class OracleTable {
 public:
  OracleTable(Schema schema, std::size_t capacity)
      : schema_(std::move(schema)), rows_(capacity) {}

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] std::size_t capacity() const { return rows_.capacity(); }
  [[nodiscard]] std::uint64_t evicted() const { return rows_.evicted(); }
  [[nodiscard]] std::uint64_t inserted() const { return inserted_; }
  [[nodiscard]] const RingBuffer<Row>& rows() const { return rows_; }
  [[nodiscard]] Timestamp newest_ts() const {
    return rows_.empty() ? 0 : rows_.newest().ts;
  }
  void clear() { rows_.clear(); }

  Status insert(Timestamp now, std::vector<Value> values) {
    if (values.size() != schema_.width()) {
      return Status::failure("insert into " + schema_.name() + ": expected " +
                             std::to_string(schema_.width()) + " values, got " +
                             std::to_string(values.size()));
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      const ColumnType want = schema_.columns()[i].type;
      const ColumnType got = values[i].type();
      if (want == got) continue;
      if (want == ColumnType::Real && got == ColumnType::Int) {
        values[i] = Value{values[i].as_real()};
      } else if (want == ColumnType::Int && got == ColumnType::Real) {
        values[i] = Value{values[i].as_int()};
      } else if (want == ColumnType::Ts && got == ColumnType::Int) {
        values[i] = Value::ts(static_cast<Timestamp>(values[i].as_int()));
      } else {
        return Status::failure("insert into " + schema_.name() + ": column " +
                               schema_.columns()[i].name + " wants " +
                               std::string(to_string(want)) + ", got " +
                               std::string(to_string(got)));
      }
    }
    rows_.push(Row{now, std::move(values)});
    ++inserted_;
    return {};
  }

  void restore_rows(std::vector<Row> rows, std::uint64_t inserted,
                    std::uint64_t evicted) {
    rows_.assign(std::move(rows));
    inserted_ = inserted;
    rows_.restore_evicted(evicted);
  }

 private:
  Schema schema_;
  RingBuffer<Row> rows_;
  std::uint64_t inserted_ = 0;
};

/// The pool's strings in order of first use, oldest row first and left to
/// right within a row, and each one's index.
struct ChunkStrings {
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::string> strings;

  explicit ChunkStrings(const OracleTable& table) {
    table.rows().for_each([&](const Row& row) {
      for (const Value& v : row.values) {
        if (v.type() != ColumnType::Text) continue;
        const auto [it, added] = ids.try_emplace(
            v.as_text(), static_cast<std::uint32_t>(strings.size()));
        if (added) strings.push_back(v.as_text());
      }
      return true;
    });
  }
};

/// Zigzag over two's-complement bits: 0, -1, 1, -2 ... become 0, 1, 2, 3 ...
std::uint64_t zigzag(std::uint64_t v) {
  return (v << 1) ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(v) >> 63);
}

void put_varint(ByteWriter& c, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) c.u8(static_cast<std::uint8_t>(0x80 | (v & 0x7F)));
  c.u8(static_cast<std::uint8_t>(v));
}

enum class Format { V3, V4 };

/// The HTBL head: name, capacity, counters, column definitions, string
/// table and row count. Format 3 writes each string with a u32 length;
/// format 4 writes the count of leading bytes (at most 255) it shares with
/// the string before, then the rest with a varint length.
void put_table_head(ByteWriter& c, const OracleTable& table,
                    const std::vector<std::string>& strings, Format format) {
  snapshot::put_string(c, table.schema().name());
  c.u64(table.capacity());
  c.u64(table.inserted());
  c.u64(table.evicted());
  c.u32(static_cast<std::uint32_t>(table.schema().width()));
  for (const auto& col : table.schema().columns()) {
    snapshot::put_string(c, col.name);
    c.u8(static_cast<std::uint8_t>(col.type));
  }
  c.u32(static_cast<std::uint32_t>(strings.size()));
  std::string prev;
  for (const auto& str : strings) {
    if (format == Format::V3) {
      snapshot::put_string(c, str);
      continue;
    }
    std::size_t shared = 0;
    while (shared < 255 && shared < prev.size() && shared < str.size() &&
           prev[shared] == str[shared]) {
      ++shared;
    }
    c.u8(static_cast<std::uint8_t>(shared));
    put_varint(c, str.size() - shared);
    c.raw(str.data() + shared, str.size() - shared);
    prev = str;
  }
  c.u32(static_cast<std::uint32_t>(table.size()));
}

/// A value's 8-byte cell as the table stores it (text aside).
std::uint64_t cell_bits(const Value& v) {
  switch (v.type()) {
    case ColumnType::Int: return static_cast<std::uint64_t>(v.as_int());
    case ColumnType::Real: return std::bit_cast<std::uint64_t>(v.as_real());
    case ColumnType::Ts: return v.as_ts();
    case ColumnType::Text: break;
  }
  return 0;
}

/// The HTBL chunk payload of snapshot format 3, the oracle for format 4:
/// row after row, the ts then each value tagged with its own type, text
/// as a u32 string index.
Bytes encode_table_v3(const OracleTable& table) {
  const ChunkStrings text(table);
  ByteWriter c;
  put_table_head(c, table, text.strings, Format::V3);
  table.rows().for_each([&](const Row& row) {
    c.u64(row.ts);
    for (const Value& v : row.values) {
      c.u8(static_cast<std::uint8_t>(v.type()));
      if (v.type() == ColumnType::Text) {
        c.u32(text.ids.at(v.as_text()));
      } else {
        c.u64(cell_bits(v));
      }
    }
    return true;
  });
  return c.bytes();
}

/// A format-3 chunk decoded as format 3 restored it: the cells and strings
/// that Table::restore takes.
struct TableImageV3 {
  std::string name;
  std::uint64_t capacity = 0;
  std::uint64_t inserted = 0;
  std::uint64_t evicted = 0;
  std::vector<ColumnDef> columns;
  std::vector<std::string> strings;
  std::vector<std::uint64_t> cells;
};

Result<TableImageV3> decode_table_v3(const Bytes& chunk) {
  ByteReader br(chunk);
  TableImageV3 t;
  auto name = snapshot::get_string(br);
  if (!name) return name.error();
  t.name = std::move(name).take();
  auto capacity = br.u64();
  auto inserted = br.u64();
  auto evicted = br.u64();
  auto ncols = br.u32();
  if (!capacity || !inserted || !evicted || !ncols) {
    return make_error("v3: truncated table header");
  }
  t.capacity = capacity.value();
  t.inserted = inserted.value();
  t.evicted = evicted.value();
  if (ncols.value() > br.remaining() / 5) return make_error("v3: column count");
  for (std::uint32_t i = 0; i < ncols.value(); ++i) {
    auto col_name = snapshot::get_string(br);
    auto col_type = br.u8();
    if (!col_name || !col_type || col_type.value() > 3) {
      return make_error("v3: column defs");
    }
    t.columns.push_back(ColumnDef{std::move(col_name).take(),
                                  static_cast<ColumnType>(col_type.value())});
  }
  auto nstrings = br.u32();
  if (!nstrings || nstrings.value() > br.remaining() / 4) {
    return make_error("v3: string count");
  }
  for (std::uint32_t i = 0; i < nstrings.value(); ++i) {
    auto str = snapshot::get_string(br);
    if (!str) return str.error();
    t.strings.push_back(std::move(str).take());
  }
  auto nrows = br.u32();
  if (!nrows || nrows.value() > br.remaining() / (8 + 5 * t.columns.size())) {
    return make_error("v3: row count");
  }
  for (std::uint32_t i = 0; i < nrows.value(); ++i) {
    auto ts = br.u64();
    if (!ts) return ts.error();
    t.cells.push_back(ts.value());
    for (const ColumnDef& col : t.columns) {
      auto type = br.u8();
      if (!type || type.value() != static_cast<std::uint8_t>(col.type)) {
        return make_error("v3: cell of the wrong type");
      }
      if (col.type == ColumnType::Text) {
        auto id = br.u32();
        if (!id || id.value() >= t.strings.size()) return make_error("v3: string id");
        t.cells.push_back(id.value());
      } else {
        auto v = br.u64();
        if (!v) return v.error();
        t.cells.push_back(v.value());
      }
    }
  }
  return t;
}

/// The HTBL chunk payload Database::save writes for `table` (format 4),
/// encoded here from the row-vector storage: the head, then one block per
/// column, ts first. ts is a zigzag varint of its delta of deltas, an Int or
/// Ts cell a zigzag varint of its delta from the row before, a text cell a
/// varint string index, and a Real its bits XORed with its series' value
/// before (the row's first-column text, when that column is Text) as a mask
/// of written bytes and then those bytes, least significant first: the
/// nonzero ones, or all eight in a wall-clock series.
Bytes encode_table(const OracleTable& table) {
  const ChunkStrings text(table);
  ByteWriter c;
  put_table_head(c, table, text.strings, Format::V4);
  std::vector<const Row*> rows;
  table.rows().for_each([&](const Row& row) {
    rows.push_back(&row);
    return true;
  });
  std::uint64_t delta = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint64_t d = rows[r]->ts - (r == 0 ? 0 : rows[r - 1]->ts);
    put_varint(c, zigzag(d - delta));
    delta = d;
  }
  const bool keyed = hwdb::series_column(table.schema().columns()) == 0;
  for (std::size_t col = 0; col < table.schema().width(); ++col) {
    std::uint64_t prev = 0;
    std::map<std::string, std::uint64_t> series_prev;
    for (const Row* row : rows) {
      const Value& v = row->values[col];
      const std::uint64_t bits = cell_bits(v);
      switch (v.type()) {
        case ColumnType::Text: put_varint(c, text.ids.at(v.as_text())); break;
        case ColumnType::Int:
        case ColumnType::Ts: put_varint(c, zigzag(bits - prev)); break;
        case ColumnType::Real: {
          const std::string series = keyed ? row->values[0].as_text() : "";
          const bool full = keyed && table.schema().wall_clock(series);
          const std::uint64_t x = bits ^ series_prev[series];
          series_prev[series] = bits;
          std::uint8_t mask = 0;
          ByteWriter written;
          for (int byte = 0; byte < 8; ++byte) {
            const auto b = static_cast<std::uint8_t>(x >> (8 * byte));
            if (b == 0 && !full) continue;
            mask = static_cast<std::uint8_t>(mask | 1 << byte);
            written.u8(b);
          }
          c.u8(mask);
          c.raw(written.bytes());
          break;
        }
      }
      prev = bits;
    }
  }
  return c.bytes();
}

/// Column namespace over the driving table and (optionally) a joined table:
/// resolves bare and "table.column"-qualified names to combined-row indexes.
/// Combined rows are laid out left columns then right columns.
class ColumnSpace {
 public:
  ColumnSpace(const Schema& left, const Schema* right)
      : left_(left), right_(right) {}

  /// Returns the combined index, -2 for the ts pseudo-column, or -1.
  [[nodiscard]] int resolve(const std::string& name) const {
    const auto dot = name.find('.');
    if (dot != std::string::npos) {
      const std::string qualifier = name.substr(0, dot);
      const std::string column = name.substr(dot + 1);
      if (iequals(qualifier, left_.name())) {
        if (iequals(column, "ts")) return -2;
        return left_.column_index(column);
      }
      if (right_ != nullptr && iequals(qualifier, right_->name())) {
        const int idx = right_->column_index(column);
        return idx < 0 ? -1 : idx + static_cast<int>(left_.width());
      }
      return -1;
    }
    if (iequals(name, "ts")) return -2;
    const int left_idx = left_.column_index(name);
    if (left_idx >= 0) return left_idx;
    if (right_ != nullptr) {
      const int idx = right_->column_index(name);
      if (idx >= 0) return idx + static_cast<int>(left_.width());
    }
    return -1;
  }

  /// Every column name, qualified where both tables are present.
  [[nodiscard]] std::vector<std::string> all_names() const {
    std::vector<std::string> out;
    const bool qualify = right_ != nullptr;
    for (const auto& c : left_.columns()) {
      out.push_back(qualify ? left_.name() + "." + c.name : c.name);
    }
    if (right_ != nullptr) {
      for (const auto& c : right_->columns()) {
        out.push_back(right_->name() + "." + c.name);
      }
    }
    return out;
  }

 private:
  const Schema& left_;
  const Schema* right_;
};

/// Aggregate accumulator.
struct Accumulator {
  AggFn fn = AggFn::None;
  int column = -1;  // combined index; -1 for count(*), -2 for ts
  std::uint64_t count = 0;
  double sum = 0;
  double sum_sq = 0;
  bool integral = true;  // sum of only Int values renders as Int
  Value min_v;
  Value max_v;
  Value last_v;
  bool any = false;

  // Rows are fed newest-first, so the first value seen is the LAST value.
  void feed(const Row& row) {
    ++count;
    if (fn == AggFn::Count && column == -1) return;
    const Value v = column == -2
                        ? Value::ts(row.ts)
                        : row.values[static_cast<std::size_t>(column)];
    if (v.type() != ColumnType::Int) integral = false;
    if (!any) {
      min_v = v;
      max_v = v;
      last_v = v;
      any = true;
    } else {
      if (v.compare(min_v) < 0) min_v = v;
      if (v.compare(max_v) > 0) max_v = v;
    }
    sum += v.as_real();
    sum_sq += v.as_real() * v.as_real();
  }

  [[nodiscard]] Value result() const {
    switch (fn) {
      case AggFn::Count:
        return Value{static_cast<std::int64_t>(count)};
      case AggFn::Sum:
        return integral ? Value{static_cast<std::int64_t>(sum)} : Value{sum};
      case AggFn::Avg:
        return count == 0 ? Value{0.0} : Value{sum / static_cast<double>(count)};
      case AggFn::Min:
        return any ? min_v : Value{};
      case AggFn::Max:
        return any ? max_v : Value{};
      case AggFn::Last:
        return any ? last_v : Value{};
      case AggFn::Stddev: {
        if (count == 0) return Value{0.0};
        const double n = static_cast<double>(count);
        const double mean = sum / n;
        const double variance = std::max(0.0, sum_sq / n - mean * mean);
        return Value{std::sqrt(variance)};
      }
      case AggFn::None:
        break;
    }
    return Value{};
  }
};

Result<bool> eval(const Predicate& p, const ColumnSpace& cols, const Row& row);

Result<bool> eval_compare(const Predicate& p, const ColumnSpace& cols,
                          const Row& row) {
  const int idx = cols.resolve(p.column);
  if (idx == -1) return make_error("unknown column in WHERE: " + p.column);
  const Value lhs =
      idx == -2 ? Value::ts(row.ts) : row.values[static_cast<std::size_t>(idx)];
  switch (p.op) {
    case CmpOp::Eq: return lhs.compare(p.literal) == 0;
    case CmpOp::Ne: return lhs.compare(p.literal) != 0;
    case CmpOp::Lt: return lhs.compare(p.literal) < 0;
    case CmpOp::Le: return lhs.compare(p.literal) <= 0;
    case CmpOp::Gt: return lhs.compare(p.literal) > 0;
    case CmpOp::Ge: return lhs.compare(p.literal) >= 0;
    case CmpOp::Contains:
      return lhs.to_string().find(p.literal.to_string()) != std::string::npos;
  }
  return make_error("bad comparison operator");
}

Result<bool> eval(const Predicate& p, const ColumnSpace& cols, const Row& row) {
  switch (p.kind) {
    case Predicate::Kind::Compare:
      return eval_compare(p, cols, row);
    case Predicate::Kind::And: {
      for (const auto& c : p.children) {
        auto r = eval(*c, cols, row);
        if (!r) return r;
        if (!r.value()) return false;
      }
      return true;
    }
    case Predicate::Kind::Or: {
      for (const auto& c : p.children) {
        auto r = eval(*c, cols, row);
        if (!r) return r;
        if (r.value()) return true;
      }
      return false;
    }
    case Predicate::Kind::Not: {
      auto r = eval(*p.children[0], cols, row);
      if (!r) return r;
      return !r.value();
    }
  }
  return make_error("bad predicate kind");
}

/// The query pipeline over an abstract newest-first row stream.
/// `visit(fn)` must call fn for each candidate row newest-first and stop when
/// fn returns false; rows are already window-filtered except for max_rows.
Result<ResultSet> run_pipeline(
    const SelectQuery& q, const ColumnSpace& cols, std::uint64_t max_rows,
    const std::function<void(const std::function<bool(const Row&)>&)>& visit) {
  // Resolve projections.
  struct ResolvedProj {
    Projection proj;
    int column = -1;  // combined index; -2 ts pseudo-column; -1 count(*)
  };
  std::vector<ResolvedProj> projs;
  ResultSet rs;

  if (q.projections.empty()) {
    projs.push_back({Projection{AggFn::None, "ts"}, -2});
    rs.columns.push_back("ts");
    int idx = 0;
    for (const auto& name : cols.all_names()) {
      projs.push_back({Projection{AggFn::None, name}, idx++});
      rs.columns.push_back(name);
    }
  } else {
    for (const auto& p : q.projections) {
      ResolvedProj rp{p, -1};
      if (p.fn == AggFn::Count && p.column == "*") {
        rp.column = -1;
      } else {
        rp.column = cols.resolve(p.column);
        if (rp.column == -1) return make_error("unknown column: " + p.column);
      }
      rs.columns.push_back(p.display_name());
      projs.push_back(std::move(rp));
    }
  }

  // Resolve grouping columns.
  std::vector<int> group_cols;
  for (const auto& g : q.group_by) {
    const int idx = cols.resolve(g);
    if (idx == -1) return make_error("unknown GROUP BY column: " + g);
    group_cols.push_back(idx);
  }

  const bool aggregating = q.has_aggregates() || !q.group_by.empty();
  std::string error;

  auto value_at = [](const Row& row, int idx) {
    return idx == -2 ? Value::ts(row.ts)
                     : row.values[static_cast<std::size_t>(idx)];
  };

  if (!aggregating) {
    std::uint64_t taken = 0;
    visit([&](const Row& row) {
      if (taken >= max_rows) return false;
      if (q.where != nullptr) {
        auto keep = eval(*q.where, cols, row);
        if (!keep) {
          error = keep.error().message;
          return false;
        }
        if (!keep.value()) return true;
      }
      ++taken;
      std::vector<Value> out;
      out.reserve(projs.size());
      for (const auto& rp : projs) out.push_back(value_at(row, rp.column));
      rs.rows.push_back(std::move(out));
      return true;
    });
    if (!error.empty()) return make_error(error);
    std::reverse(rs.rows.begin(), rs.rows.end());  // chronological output
    if (q.limit > 0 && rs.rows.size() > q.limit) {
      // LIMIT keeps the newest rows: the tail of the chronological output.
      rs.rows.erase(rs.rows.begin(),
                    rs.rows.end() - static_cast<std::ptrdiff_t>(q.limit));
    }
    return rs;
  }

  // Aggregation path: group key is the rendered tuple of group columns.
  struct Group {
    std::vector<Value> key_values;
    std::vector<Accumulator> accs;
  };
  std::map<std::string, Group> groups;
  std::uint64_t taken = 0;

  visit([&](const Row& row) {
    if (taken >= max_rows) return false;
    if (q.where != nullptr) {
      auto keep = eval(*q.where, cols, row);
      if (!keep) {
        error = keep.error().message;
        return false;
      }
      if (!keep.value()) return true;
    }
    ++taken;

    std::string key;
    std::vector<Value> key_values;
    for (int col : group_cols) {
      const Value v = value_at(row, col);
      key += v.to_string();
      key += '\x1f';
      key_values.push_back(v);
    }

    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) {
      it->second.key_values = std::move(key_values);
      for (const auto& rp : projs) {
        Accumulator acc;
        acc.fn = rp.proj.fn;
        acc.column = rp.column;
        it->second.accs.push_back(acc);
      }
    }
    for (auto& acc : it->second.accs) acc.feed(row);
    return true;
  });
  if (!error.empty()) return make_error(error);

  for (auto& [key, group] : groups) {
    if (q.limit > 0 && rs.rows.size() >= q.limit) break;
    std::vector<Value> out;
    out.reserve(projs.size());
    for (std::size_t i = 0; i < projs.size(); ++i) {
      const auto& rp = projs[i];
      if (rp.proj.fn == AggFn::None) {
        bool found = false;
        for (std::size_t g = 0; g < group_cols.size(); ++g) {
          if (iequals(q.group_by[g], rp.proj.column)) {
            out.push_back(group.key_values[g]);
            found = true;
            break;
          }
        }
        if (!found) out.push_back(Value{});
      } else {
        out.push_back(group.accs[i].result());
      }
    }
    rs.rows.push_back(std::move(out));
  }
  return rs;
}

/// As-of index over the right table of a join: per key, row indexes ordered
/// by insertion (oldest → newest).
class AsOfIndex {
 public:
  AsOfIndex(const OracleTable& right, int key_column) : right_(right) {
    right.rows().for_each([&](const Row& row) {
      // for_each is oldest-first; positions stored in that order.
      keys_[row.values[static_cast<std::size_t>(key_column)].to_string()]
          .push_back(pos_++);
      return true;
    });
  }

  /// Newest right row with the given key and ts <= `as_of`, or nullptr.
  [[nodiscard]] const Row* lookup(const Value& key, Timestamp as_of) const {
    auto it = keys_.find(key.to_string());
    if (it == keys_.end()) return nullptr;
    const auto& positions = it->second;
    // Binary search for the last position with ts <= as_of.
    const Row* best = nullptr;
    std::size_t lo = 0, hi = positions.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      const Row& row = right_.rows().at(positions[mid]);
      if (row.ts <= as_of) {
        best = &row;
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return best;
  }

 private:
  const OracleTable& right_;
  std::unordered_map<std::string, std::vector<std::size_t>> keys_;
  std::size_t pos_ = 0;
};

Result<ResultSet> execute(const SelectQuery& q, const OracleTable& table,
                          const OracleTable* right, Timestamp now) {
  // Window bounds over the driving table.
  Timestamp min_ts = 0;
  std::uint64_t max_rows = std::numeric_limits<std::uint64_t>::max();
  switch (q.window.kind) {
    case Window::Kind::All:
      break;
    case Window::Kind::Range:
      min_ts = now >= q.window.amount * kSecond ? now - q.window.amount * kSecond
                                                : 0;
      break;
    case Window::Kind::Rows:
      max_rows = q.window.amount;
      break;
    case Window::Kind::Now:
      min_ts = table.newest_ts();
      break;
    case Window::Kind::Since:
      min_ts = q.window.amount;
      break;
  }

  if (!q.join) {
    const ColumnSpace cols(table.schema(), nullptr);
    return run_pipeline(q, cols, max_rows, [&](const auto& fn) {
      table.rows().for_each_newest_first([&](const Row& row) {
        if (row.ts < min_ts) return false;
        return fn(row);
      });
    });
  }

  // Join path.
  if (right == nullptr) return make_error("join table missing: " + q.join->table);
  const int left_key = table.schema().column_index(q.join->left_column);
  if (left_key < 0) {
    return make_error("unknown join column: " + q.join->left_column);
  }
  const int right_key = right->schema().column_index(q.join->right_column);
  if (right_key < 0) {
    return make_error("unknown join column: " + q.join->right_column);
  }

  const AsOfIndex index(*right, right_key);
  const ColumnSpace cols(table.schema(), &right->schema());

  return run_pipeline(q, cols, max_rows, [&](const auto& fn) {
    table.rows().for_each_newest_first([&](const Row& left_row) {
      if (left_row.ts < min_ts) return false;
      const Value& key =
          left_row.values[static_cast<std::size_t>(left_key)];
      const Row* match = index.lookup(key, left_row.ts);
      if (match == nullptr) return true;  // inner join: drop unmatched
      Row combined;
      combined.ts = left_row.ts;
      combined.values.reserve(left_row.values.size() + match->values.size());
      combined.values = left_row.values;
      combined.values.insert(combined.values.end(), match->values.begin(),
                             match->values.end());
      return fn(combined);
    });
  });
}

}  // namespace oracle

/// A table and its oracle twin, filled by the same inserts.
struct TwinTable {
  TwinTable(const Schema& schema, std::size_t capacity)
      : table(schema, capacity), oracle(schema, capacity) {}

  Status insert(Timestamp now, std::vector<Value> values) {
    const Status got = table.insert(now, values);
    const Status want = oracle.insert(now, std::move(values));
    EXPECT_EQ(got.ok(), want.ok());
    if (!got.ok() && !want.ok()) {
      EXPECT_EQ(got.error().message, want.error().message);
    }
    return got;
  }

  Table table;
  oracle::OracleTable oracle;
};

/// Random contents for a Flows-like driving table (one column of each type)
/// and a Names table to join against, each with its oracle twin. Text is
/// printable; Reals include distinct values that render equal under %.6g.
struct RandomTables {
  explicit RandomTables(Rng& rng)
      : left(Schema("Flows", {{"device", ColumnType::Text},
                              {"app", ColumnType::Text},
                              {"bytes", ColumnType::Int},
                              {"rtt", ColumnType::Real},
                              {"seen", ColumnType::Ts}}),
             8 + rng.uniform(48)),
        right(Schema("Names", {{"mac", ColumnType::Text},
                               {"hostname", ColumnType::Text},
                               {"weight", ColumnType::Int}}),
              4 + rng.uniform(12)) {
    static const char* kDevices[] = {"mac-a", "mac-b", "Mac-A", "",
                                     "aa:bb:cc:dd:ee:ff:01", "mac-c"};
    static const char* kApps[] = {"web", "dns", "streaming", "voip", "web2"};
    static const char* kHosts[] = {"laptop", "phone", "tv", "toms-laptop"};
    static const double kReals[] = {0.0,       1.0,       1.0000001, 1.0000002,
                                    0.1234567, 0.1234568, 2.5,       -3.25,
                                    1e7,       12345678.9, 12345679.1};
    Timestamp t = 0;
    const std::uint64_t left_rows = rng.uniform(41);
    for (std::uint64_t i = 0; i < left_rows; ++i) {
      t += rng.uniform(3) * 250 * kMillisecond;
      const double rtt = rng.chance(0.5) ? kReals[rng.uniform(std::size(kReals))]
                                         : rng.uniform01() * 100;
      EXPECT_TRUE(left.insert(t, {Value{kDevices[rng.uniform(std::size(kDevices))]},
                                  Value{kApps[rng.uniform(std::size(kApps))]},
                                  Value{rng.uniform_range(-50, 5000)},
                                  Value{rtt},
                                  Value::ts(rng.uniform(20) * kSecond)})
                      .ok());
    }
    Timestamp u = 0;
    const std::uint64_t right_rows = rng.uniform(12);
    for (std::uint64_t i = 0; i < right_rows; ++i) {
      u += rng.uniform(4) * 500 * kMillisecond;
      EXPECT_TRUE(right.insert(u, {Value{kDevices[rng.uniform(std::size(kDevices))]},
                                   Value{kHosts[rng.uniform(std::size(kHosts))]},
                                   Value{rng.uniform_range(0, 9)}})
                      .ok());
    }
    now = std::max(t, u) + rng.uniform(3) * kSecond;
  }

  TwinTable left;
  TwinTable right;
  Timestamp now = 0;
};

/// Generates CQL text over RandomTables: every window kind, WHERE trees of
/// every operator, every aggregate over every column type and ts, GROUP BY
/// on each type, joins and LIMIT. Over any other table it makes the same
/// queries without joins.
class QueryGen {
 public:
  explicit QueryGen(Rng& rng) : rng_(rng) {}
  QueryGen(Rng& rng, const Schema& schema)
      : rng_(rng), table_(schema.name()), joins_(false) {
    columns_.clear();
    for (const auto& col : schema.columns()) columns_.push_back(col.name);
    columns_.emplace_back("ts");
  }

  std::string next() {
    join_ = joins_ && rng_.chance(0.25);
    std::vector<std::string> cols = columns_;
    if (join_) {
      for (const char* c : {"hostname", "weight", "Names.mac", "Flows.device"}) {
        cols.emplace_back(c);
      }
    }
    std::vector<std::string> group;
    if (rng_.chance(0.5)) {
      const std::uint64_t n = 1 + rng_.uniform(2);
      for (std::uint64_t i = 0; i < n; ++i) group.push_back(pick(cols));
    }

    // The parser admits plain columns next to aggregates only when they
    // are grouped, and SELECT * only without grouping.
    const bool plain_only = group.empty() && rng_.chance(0.4);
    std::string q = "SELECT ";
    if (plain_only && rng_.chance(0.3)) {
      q += "*";
    } else {
      static const char* kFns[] = {"count", "sum", "avg", "min",
                                   "max",   "last", "stddev"};
      const std::uint64_t n = 1 + rng_.uniform(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i) q += ", ";
        if (plain_only) {
          q += pick(cols);
        } else if (!group.empty() && rng_.chance(0.4)) {
          q += pick(group);
        } else if (rng_.chance(0.15)) {
          q += "count(*)";
        } else {
          q += std::string(kFns[rng_.uniform(std::size(kFns))]) + "(" +
               pick(cols) + ")";
        }
      }
    }
    q += " FROM " + table_;
    switch (rng_.uniform(7)) {
      case 0: break;
      case 1: q += " [RANGE " + std::to_string(rng_.uniform(11)) + " SECONDS]"; break;
      case 2: q += " [RANGE 1 MINUTES]"; break;
      case 3: q += " [ROWS " + std::to_string(rng_.uniform(21)) + "]"; break;
      case 4: q += " [NOW]"; break;
      case 5: q += " [SINCE " + std::to_string(rng_.uniform(12) * 500000) + "]"; break;
      default: q += " [RANGE 3 SECONDS]"; break;
    }
    if (join_) q += " JOIN Names ON device = mac";
    if (rng_.chance(0.5)) q += " WHERE " + predicate(cols, 0);
    if (!group.empty()) {
      q += " GROUP BY " + group[0];
      for (std::size_t i = 1; i < group.size(); ++i) q += ", " + group[i];
    }
    if (rng_.chance(0.3)) q += " LIMIT " + std::to_string(1 + rng_.uniform(5));
    return q;
  }

 private:
  std::string pick(const std::vector<std::string>& v) {
    return v[rng_.uniform(v.size())];
  }

  std::string predicate(const std::vector<std::string>& cols, int depth) {
    if (depth < 2 && rng_.chance(0.4)) {
      switch (rng_.uniform(3)) {
        case 0: return predicate(cols, depth + 1) + " AND " + predicate(cols, depth + 1);
        case 1: return "(" + predicate(cols, depth + 1) + " OR " +
                       predicate(cols, depth + 1) + ")";
        default: return "NOT " + predicate(cols, depth + 1);
      }
    }
    static const char* kOps[] = {"=", "!=", "<>", "<", "<=", ">", ">=", "CONTAINS"};
    // A rare unknown column checks that both report the same error.
    const std::string column = rng_.chance(0.02) ? "nosuch" : pick(cols);
    static const char* kLiterals[] = {"'mac-a'", "'web'", "'a'",  "'-'",
                                      "'laptop'", "''",   "100",  "2500",
                                      "1.0000001", "0.123457", "2", "3000000"};
    return column + " " + kOps[rng_.uniform(std::size(kOps))] + " " +
           kLiterals[rng_.uniform(std::size(kLiterals))];
  }

  Rng& rng_;
  std::string table_ = "Flows";
  std::vector<std::string> columns_ = {"device", "app", "bytes", "rtt", "seen", "ts"};
  bool joins_ = true;
  bool join_ = false;
};

/// Both results equal: the same error, or the same columns and rows with
/// every value of the same type and rendering.
void expect_same_results(const Result<ResultSet>& got,
                         const Result<ResultSet>& want, const std::string& text) {
  ASSERT_EQ(got.ok(), want.ok()) << text;
  if (!want.ok()) {
    EXPECT_EQ(got.error().message, want.error().message) << text;
    return;
  }
  const ResultSet& g = got.value();
  const ResultSet& w = want.value();
  ASSERT_EQ(g.columns, w.columns) << text;
  ASSERT_EQ(g.rows.size(), w.rows.size()) << text;
  for (std::size_t r = 0; r < w.rows.size(); ++r) {
    ASSERT_EQ(g.rows[r].size(), w.rows[r].size()) << text;
    for (std::size_t i = 0; i < w.rows[r].size(); ++i) {
      EXPECT_EQ(g.rows[r][i].type(), w.rows[r][i].type())
          << text << " row " << r << " col " << i;
      EXPECT_EQ(g.rows[r][i].to_string(), w.rows[r][i].to_string())
          << text << " row " << r << " col " << i;
    }
  }
}

TEST(ExecutorDifferential, MatchesOracleOnRandomTablesAndQueries) {
  Rng rng(0x5eed15);
  constexpr int kCases = 6000;
  int grouped = 0;
  int joined = 0;
  for (int c = 0; c < kCases; ++c) {
    const RandomTables tables(rng);
    QueryGen gen(rng);
    const std::string text = gen.next();
    auto q = parse_query(text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.error().message;
    const bool join = q.value().join.has_value();
    expect_same_results(
        execute(q.value(), tables.left.table,
                join ? &tables.right.table : nullptr, tables.now),
        oracle::execute(q.value(), tables.left.oracle,
                        join ? &tables.right.oracle : nullptr, tables.now),
        text);
    if (HasFatalFailure()) return;
    grouped += q.value().group_by.empty() ? 0 : 1;
    joined += join ? 1 : 0;
  }
  // The generator really covers both pipelines and the join.
  EXPECT_GT(grouped, kCases / 4);
  EXPECT_GT(joined, kCases / 8);
}

// ---------------------------------------------------------------------------
// CQL parser property: mangled queries never crash parse or execute

/// The example queries of docs/hwdb-cql.md, plus queries that use each
/// window, operator, aggregate and clause its grammar documents.
const char* const kDocQueries[] = {
    "SELECT device, app, sum(bytes) FROM Flows [RANGE 10 SECONDS] "
    "GROUP BY device, app",
    "SELECT mac, last(rssi) FROM Links [RANGE 5 SECONDS] GROUP BY mac",
    "SELECT hostname, sum(bytes) FROM Flows [RANGE 60 SECONDS] "
    "JOIN Leases ON device = mac GROUP BY hostname",
    "SELECT * FROM Flows [ROWS 100] LIMIT 8",
    "SELECT * FROM Links [NOW]",
    "SELECT count(*), avg(rssi), stddev(rssi) FROM Links [SINCE 5000000]",
    "SELECT min(bytes), max(bytes) FROM Flows [RANGE 30 MINUTES] "
    "WHERE (app = 'web' OR app <> \"dns\") AND NOT bytes <= 100 "
    "AND device CONTAINS 'aa' GROUP BY device",
    "SELECT Flows.device, Leases.hostname FROM Flows [RANGE 1 HOURS] "
    "JOIN Leases ON Flows.device = Leases.mac WHERE dport >= 443 LIMIT 3",
};

struct StandardTablesFixture : ::testing::Test {
  StandardTablesFixture() : db(loop) {
    EXPECT_TRUE(homework::EventExport::create_tables(db, {}).ok());
    for (int i = 0; i < 6; ++i) {
      loop.run_for(kSecond);
      const std::string mac = "aa:00:00:00:00:0" + std::to_string(i % 3);
      EXPECT_TRUE(db.insert("Leases", {Value{mac}, Value{"10.0.0." + std::to_string(i)},
                                       Value{"host-" + std::to_string(i)},
                                       Value{"add"}, Value{"permitted"}})
                      .ok());
      EXPECT_TRUE(db.insert("Flows", {Value{mac}, Value{"10.0.0.1"}, Value{"8.8.8.8"},
                                      Value{17}, Value{5000 + i}, Value{443},
                                      Value{"web"}, Value{100 * i}, Value{i}})
                      .ok());
      EXPECT_TRUE(db.insert("Links", {Value{mac}, Value{-40.5 - i}, Value{i},
                                      Value{1000 * i}})
                      .ok());
    }
  }

  /// Parses `text`; a query that parses must execute to rows or an error.
  void probe(const std::string& text) {
    auto q = parse_query(text);
    if (!q.ok()) return;
    ++parsed;
    auto rs = db.query(q.value());
    if (rs.ok()) ++executed;
  }

  sim::EventLoop loop;
  Database db;
  int parsed = 0;
  int executed = 0;
};

// ---------------------------------------------------------------------------
// Storage: fixed-width records and the text pool against the oracle

/// The four Homework tables' schemas.
std::vector<Schema> homework_schemas() {
  sim::EventLoop loop;
  Database db(loop);
  EXPECT_TRUE(homework::EventExport::create_tables(db, {}).ok());
  EXPECT_TRUE(homework::MetricsExport::create_table(db, {}).ok());
  std::vector<Schema> out;
  for (const auto& name : db.table_names()) out.push_back(db.table(name)->schema());
  return out;
}

/// A value for a cell of `type`: text from a small vocabulary (short and
/// heap-sized strings, the empty string) or, now and then, never seen
/// before, so the pool both shares and churns.
Value random_value(Rng& rng, ColumnType type, std::uint64_t& unique) {
  static const char* kTexts[] = {"",          "web",  "dns",  "aa:bb:cc:dd:ee:01",
                                 "10.0.0.1",  "hwdb.database.inserts_total",
                                 "counter",   "gauge", "Mac-A", "streaming"};
  switch (type) {
    case ColumnType::Int: return Value{rng.uniform_range(-1000, 100000)};
    case ColumnType::Real:
      // An Int in a Real column is converted on insert.
      return rng.chance(0.2) ? Value{rng.uniform_range(-50, 50)}
                             : Value{rng.uniform01() * 200 - 100};
    case ColumnType::Ts:
      return rng.chance(0.2) ? Value{rng.uniform_range(0, 1000)}
                             : Value::ts(rng.uniform(30) * kSecond);
    case ColumnType::Text:
      if (rng.chance(0.15)) return Value{"unique-string-number-" + std::to_string(unique++)};
      return Value{kTexts[rng.uniform(std::size(kTexts))]};
  }
  return {};
}

/// The table holds exactly the oracle's rows and counters.
void expect_same_table(const Table& table, const oracle::OracleTable& want) {
  ASSERT_EQ(table.size(), want.size());
  EXPECT_EQ(table.capacity(), want.capacity());
  EXPECT_EQ(table.inserted(), want.inserted());
  EXPECT_EQ(table.evicted(), want.evicted());
  EXPECT_EQ(table.newest_ts(), want.newest_ts());
  std::set<std::string_view> texts;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const RecordView got = table.record(i);
    const oracle::Row& row = want.rows().at(i);
    ASSERT_EQ(got.ts(), row.ts) << "row " << i;
    for (std::size_t c = 0; c < row.values.size(); ++c) {
      const ValueRef v = got.at(c);
      EXPECT_EQ(v.type(), row.values[c].type()) << "row " << i << " col " << c;
      EXPECT_EQ(v.to_string(), row.values[c].to_string()) << "row " << i << " col " << c;
      if (v.type() == ColumnType::Text) texts.insert(v.as_text());
    }
  }
  // The pool holds exactly the strings the live rows use.
  EXPECT_EQ(table.text_pool().size(), texts.size());
}

/// `db`'s HTBL chunk for table `name`.
Bytes htbl_chunk(const Database& db, const std::string& name) {
  snapshot::Writer w;
  db.save(w);
  const Bytes image = std::move(w).finish();
  auto reader = snapshot::Reader::parse(image);
  EXPECT_TRUE(reader.ok());
  for (const Bytes* chunk : reader.value().find_all(snapshot::tag("HTBL"))) {
    ByteReader br(*chunk);
    auto chunk_name = snapshot::get_string(br);
    if (chunk_name.ok() && chunk_name.value() == name) return *chunk;
  }
  ADD_FAILURE() << "no HTBL chunk for " << name;
  return {};
}

/// Seeded inserts (most of them evicting), clears, save/restore round trips
/// and queries over each Homework schema and one random schema, in a
/// Database and in the oracle table side by side: after every step the
/// table equals the oracle row for row, every query result is equal, and
/// every HTBL chunk is byte-identical to the one the oracle encodes.
TEST(TableDifferential, MatchesRowVectorOracle) {
  Rng rng(0x7ab1ec);
  std::vector<Schema> schemas = homework_schemas();
  ASSERT_EQ(schemas.size(), 4u);
  std::vector<ColumnDef> random_columns;
  const std::uint64_t width = 1 + rng.uniform(7);
  for (std::uint64_t c = 0; c < width; ++c) {
    random_columns.push_back(
        {"c" + std::to_string(c), static_cast<ColumnType>(rng.uniform(4))});
  }
  schemas.emplace_back("Random", random_columns);

  std::uint64_t unique = 0;
  int restores = 0;
  int queries = 0;
  for (const Schema& schema : schemas) {
    for (int trial = 0; trial < 6; ++trial) {
      sim::EventLoop loop;
      auto db = std::make_unique<Database>(loop);
      const std::size_t capacity = 1 + rng.uniform(48);
      ASSERT_TRUE(db->create_table(schema, capacity).ok());
      oracle::OracleTable want(schema, capacity);
      for (int step = 0; step < 240; ++step) {
        const std::uint64_t op = rng.uniform(100);
        if (op < 84) {
          loop.run_for(rng.uniform(4) * 250 * kMillisecond);
          std::vector<Value> values;
          for (const auto& col : schema.columns()) {
            values.push_back(random_value(rng, col.type, unique));
          }
          if (rng.chance(0.03)) {
            // A value of a type no conversion admits, or a short row.
            if (rng.chance(0.5) || values.empty()) {
              values.emplace_back(1);
            } else {
              values[rng.uniform(values.size())] = Value{"not-a-number"};
            }
          }
          const Status got = db->insert(schema.name(), refs(values));
          const Status expected = want.insert(loop.now(), values);
          ASSERT_EQ(got.ok(), expected.ok()) << schema.name() << " step " << step;
        } else if (op < 87) {
          db->table(schema.name())->clear();
          want.clear();
        } else if (op < 94) {
          const Bytes chunk = htbl_chunk(*db, schema.name());
          ASSERT_EQ(chunk, oracle::encode_table(want)) << schema.name();
          snapshot::Writer w;
          db->save(w);
          const Bytes image = std::move(w).finish();
          auto reader = snapshot::Reader::parse(image);
          ASSERT_TRUE(reader.ok());
          // Into a fresh home, or over the live table (a warm restart).
          if (rng.chance(0.5)) db = std::make_unique<Database>(loop);
          ASSERT_TRUE(db->restore(reader.value()).ok());
          std::vector<oracle::Row> rows;
          want.rows().for_each([&](const oracle::Row& row) {
            rows.push_back(row);
            return true;
          });
          want.restore_rows(std::move(rows), want.inserted(), want.evicted());
          ++restores;
        } else {
          QueryGen gen(rng, schema);
          for (int k = 0; k < 4; ++k) {
            const std::string text = gen.next();
            auto q = parse_query(text);
            ASSERT_TRUE(q.ok()) << text << ": " << q.error().message;
            expect_same_results(db->query(q.value()),
                                oracle::execute(q.value(), want, nullptr, loop.now()),
                                text);
            if (HasFatalFailure()) return;
            ++queries;
          }
        }
        expect_same_table(*db->table(schema.name()), want);
        if (HasFatalFailure()) return;
      }
      EXPECT_EQ(htbl_chunk(*db, schema.name()), oracle::encode_table(want))
          << schema.name();
    }
  }
  EXPECT_GT(restores, 100);
  EXPECT_GT(queries, 1000);
  EXPECT_GT(unique, 500u);
}

/// random_value, or now and then a value at an edge of its type's range,
/// where deltas and XORs wrap.
Value edge_or_random_value(Rng& rng, ColumnType type, std::uint64_t& unique) {
  if (!rng.chance(0.1)) return random_value(rng, type, unique);
  switch (type) {
    case ColumnType::Int: {
      static const std::int64_t kInts[] = {std::numeric_limits<std::int64_t>::min(),
                                           std::numeric_limits<std::int64_t>::max(),
                                           -1, 0};
      return Value{kInts[rng.uniform(std::size(kInts))]};
    }
    case ColumnType::Real: {
      static const double kReals[] = {-0.0,
                                      std::numeric_limits<double>::quiet_NaN(),
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::denorm_min(),
                                      std::numeric_limits<double>::max()};
      return Value{kReals[rng.uniform(std::size(kReals))]};
    }
    case ColumnType::Ts: {
      static const Timestamp kStamps[] = {0, std::numeric_limits<Timestamp>::max(),
                                          Timestamp{1} << 63};
      return Value::ts(kStamps[rng.uniform(std::size(kStamps))]);
    }
    case ColumnType::Text:
      return Value{std::string(200 + rng.uniform(200), 'x')};
  }
  return {};
}

/// restore(format 4) against restore(format 3): seeded tables of the four
/// Homework schemas and a random one are saved by Database::save and
/// encoded by the format-3 oracle from their row-vector twin. The tables the
/// two restore hold the same cells, counters and pool, and answer every
/// query alike.
TEST(TableDifferential, RestoreOfV4MatchesRestoreOfV3Oracle) {
  Rng rng(0xf04);
  std::vector<Schema> schemas = homework_schemas();
  ASSERT_EQ(schemas.size(), 4u);
  std::vector<ColumnDef> random_columns;
  const std::uint64_t width = 1 + rng.uniform(7);
  for (std::uint64_t c = 0; c < width; ++c) {
    random_columns.push_back(
        {"c" + std::to_string(c), static_cast<ColumnType>(rng.uniform(4))});
  }
  schemas.emplace_back("Random", random_columns);

  std::uint64_t unique = 0;
  std::size_t rows = 0;
  int queries = 0;
  for (const Schema& schema : schemas) {
    for (int trial = 0; trial < 10; ++trial) {
      sim::EventLoop loop;
      Database db(loop);
      const std::size_t capacity = 1 + rng.uniform(64);
      ASSERT_TRUE(db.create_table(schema, capacity).ok());
      oracle::OracleTable want(schema, capacity);
      const std::uint64_t inserts = rng.uniform(3 * capacity + 1);
      for (std::uint64_t i = 0; i < inserts; ++i) {
        // Mostly rows in the same or the next poll, now and then a gap.
        loop.run_for(rng.chance(0.05) ? rng.uniform(1000) * kSecond
                                      : rng.uniform(3) * 250 * kMillisecond);
        std::vector<Value> values;
        for (const auto& col : schema.columns()) {
          values.push_back(edge_or_random_value(rng, col.type, unique));
        }
        ASSERT_TRUE(db.insert(schema.name(), refs(values)).ok());
        ASSERT_TRUE(want.insert(loop.now(), values).ok());
      }

      snapshot::Writer w;
      db.save(w);
      const Bytes image = std::move(w).finish();
      auto reader = snapshot::Reader::parse(image);
      ASSERT_TRUE(reader.ok());
      Database restored(loop);
      ASSERT_TRUE(restored.restore(reader.value()).ok());
      const Table& v4 = *restored.table(schema.name());

      auto img = oracle::decode_table_v3(oracle::encode_table_v3(want));
      ASSERT_TRUE(img.ok()) << img.error().message;
      Table v3(schema, img.value().capacity);
      ASSERT_TRUE(v3.restore(std::move(img.value().cells), std::move(img.value().strings),
                             img.value().inserted, img.value().evicted)
                      .ok());

      ASSERT_EQ(v4.size(), v3.size());
      EXPECT_EQ(v4.capacity(), v3.capacity());
      EXPECT_EQ(v4.inserted(), v3.inserted());
      EXPECT_EQ(v4.evicted(), v3.evicted());
      EXPECT_EQ(v4.text_pool().size(), v3.text_pool().size());
      EXPECT_EQ(v4.text_pool().id_space(), v3.text_pool().id_space());
      for (std::size_t r = 0; r < v3.size(); ++r) {
        ASSERT_EQ(v4.record(r).ts(), v3.record(r).ts()) << schema.name() << " row " << r;
        for (std::size_t c = 0; c < schema.width(); ++c) {
          // Both pools hand out ids in order of first use.
          ASSERT_EQ(v4.record(r).cell(c), v3.record(r).cell(c))
              << schema.name() << " row " << r << " col " << c;
          if (schema.columns()[c].type == ColumnType::Text) {
            EXPECT_EQ(v4.record(r).at(c).as_text(), v3.record(r).at(c).as_text());
          }
        }
      }
      rows += v3.size();
      expect_same_table(v4, want);
      QueryGen gen(rng, schema);
      for (int k = 0; k < 8; ++k) {
        const std::string text = gen.next();
        auto q = parse_query(text);
        ASSERT_TRUE(q.ok()) << text << ": " << q.error().message;
        expect_same_results(restored.query(q.value()),
                            execute(q.value(), v3, nullptr, loop.now()), text);
        if (HasFatalFailure()) return;
        ++queries;
      }
    }
  }
  EXPECT_GT(rows, 1000u);
  EXPECT_GT(queries, 300);
}

Schema metrics_schema() {
  return Schema("Metrics", {{"name", ColumnType::Text},
                            {"kind", ColumnType::Text},
                            {"value", ColumnType::Real}});
}

/// Metrics-like rows over 16 series names, half of them longer than the
/// small-string buffer.
std::vector<std::vector<Value>> metrics_rows(std::size_t n) {
  static const char* kKinds[] = {"counter", "gauge", "histogram.p99"};
  std::vector<std::vector<Value>> rows;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name = i % 2 == 0 ? "s" + std::to_string(i % 16)
                                        : "home.module.series_" + std::to_string(i % 16);
    rows.push_back({Value{name}, Value{kKinds[i % 3]}, Value{0.5 * static_cast<double>(i)}});
  }
  return rows;
}

TEST(TableStorage, FullTableInsertAllocatesNothing) {
  // At a cap of 16 each insert evicts the one row that holds its name.
  for (const std::size_t cap : {std::size_t{16}, std::size_t{256}}) {
    Table table(metrics_schema(), cap);
    const auto rows = metrics_rows(8 * cap);
    for (std::size_t i = 0; i < cap; ++i) ASSERT_TRUE(table.insert(i, rows[i]).ok());
    {
      const AllocCount count;
      for (std::size_t i = cap; i < rows.size(); ++i) {
        ASSERT_TRUE(table.insert(i, rows[i]).ok());
      }
      // Every string is already pooled and the ring is full: an insert
      // only overwrites cells.
      EXPECT_EQ(count.calls(), 0u) << "cap " << cap;
    }
    EXPECT_EQ(table.size(), cap);
    EXPECT_EQ(table.text_pool().size(), 16u + 3u);
  }
}

TEST(TableStorage, FullTableWithNewStringsKeepsNothingPerRow) {
  constexpr std::size_t kCap = 128;
  Table table(metrics_schema(), kCap);
  const auto insert_unique = [&](std::size_t i) {
    // One string per row the pool has not seen, long enough for the heap
    // and all of one length.
    return table.insert(i, {Value{"a-series-name-longer-than-sso-" + std::to_string(100000 + i)},
                            Value{"gauge"}, Value{1.0}});
  };
  std::size_t i = 0;
  for (; i < 4 * kCap; ++i) ASSERT_TRUE(insert_unique(i).ok());
  std::vector<std::string> names;
  for (std::size_t k = 0; k < 10 * kCap; ++k) {
    names.push_back("a-series-name-longer-than-sso-" + std::to_string(100000 + i + k));
  }
  const AllocCount count;
  for (const std::string& name : names) {
    ASSERT_TRUE(table.insert(i++, {Value{name}, Value{"gauge"}, Value{1.0}}).ok());
  }
  // Each row's new string is stored and the evicted row's freed: the heap
  // ends where it started, whatever the number of rows.
  EXPECT_EQ(count.live_bytes(), 0);
  EXPECT_EQ(table.text_pool().size(), kCap + 1);
}

/// Allocations made by restoring a Metrics table that holds `rows` rows
/// of the same 19 strings into a home that lacks the table.
std::size_t restore_allocations(std::size_t rows) {
  sim::EventLoop loop;
  Database db(loop);
  EXPECT_TRUE(db.create_table(metrics_schema(), 4096).ok());
  for (const auto& row : metrics_rows(rows)) EXPECT_TRUE(db.insert("Metrics", refs(row)).ok());
  snapshot::Writer w;
  db.save(w);
  const Bytes image = std::move(w).finish();
  auto reader = snapshot::Reader::parse(image);
  EXPECT_TRUE(reader.ok());
  Database fresh(loop);
  const AllocCount count;
  EXPECT_TRUE(fresh.restore(reader.value()).ok());
  EXPECT_EQ(fresh.table("Metrics")->size(), rows);
  return count.calls();
}

TEST(TableStorage, RestoreAllocatesPerStringNotPerRow) {
  const std::size_t small = restore_allocations(64);
  const std::size_t large = restore_allocations(4096);
  EXPECT_EQ(small, large);
  EXPECT_LT(large, 100u);
}

/// A Metrics table's wall-clock series (a histogram's rows but its count)
/// are written at full width, and every series XORs against its own value
/// before. So two homes whose replay-exact rows agree save HTBL chunks of one
/// size, whatever their wall clocks read, and each restores the rows it saved.
TEST(TableSnapshot, WallClockSeriesDoNotMoveTheChunkSize) {
  Bytes chunks[2];
  for (int run = 0; run < 2; ++run) {
    sim::EventLoop loop;
    Database db(loop);
    ASSERT_TRUE(homework::MetricsExport::create_table(db, {}).ok());
    oracle::OracleTable want(db.table("Metrics")->schema(), 65536);
    for (int i = 0; i < 200; ++i) {
      loop.run_for(kSecond);
      // Nanoseconds that differ from run to run, in value and in the number
      // of bytes that change from one to the next.
      const double ns = run == 0 ? 1000.0 + i : 1.0e6 / (i + 3);
      const std::vector<std::vector<Value>> rows = {
          {Value{"hwdb.database.inserts"}, Value{"counter"}, Value{3.0 * i}},
          {Value{"hwdb.database.insert_ns.count"}, Value{"histogram"}, Value{1.0 * i}},
          {Value{"hwdb.database.insert_ns.p99"}, Value{"histogram"}, Value{ns}},
          {Value{"hwdb.database.insert_ns.max"}, Value{"histogram"}, Value{2 * ns}},
      };
      for (const auto& row : rows) {
        ASSERT_TRUE(db.insert("Metrics", refs(row)).ok());
        ASSERT_TRUE(want.insert(loop.now(), row).ok());
      }
    }
    chunks[run] = htbl_chunk(db, "Metrics");
    EXPECT_EQ(chunks[run], oracle::encode_table(want));

    snapshot::Writer w;
    db.save(w);
    const Bytes image = std::move(w).finish();
    auto reader = snapshot::Reader::parse(image);
    ASSERT_TRUE(reader.ok());
    Database fresh(loop);
    ASSERT_TRUE(fresh.restore(reader.value()).ok());
    expect_same_table(*fresh.table("Metrics"), want);
  }
  EXPECT_NE(chunks[0], chunks[1]);
  EXPECT_EQ(chunks[0].size(), chunks[1].size());
}

TEST(TextPool, NeverHoldsMoreThanTheLiveRowsStrings) {
  constexpr std::size_t kCap = 32;
  const Schema leases("Leases", {{"mac", ColumnType::Text},
                                 {"ip", ColumnType::Text},
                                 {"hostname", ColumnType::Text},
                                 {"event", ColumnType::Text},
                                 {"state", ColumnType::Text}});
  Table table(leases, kCap);
  // Ten times the ring's cap, every row with a MAC no other row has (a
  // spoofed-MAC flood) next to strings every row shares.
  for (std::size_t i = 0; i < 10 * kCap; ++i) {
    ASSERT_TRUE(table.insert(i, {Value{"02:00:00:00:" + std::to_string(i)},
                                 Value{"10.0.0." + std::to_string(i % 7)},
                                 Value{"host"}, Value{"add"}, Value{"pending"}})
                    .ok());
    std::set<std::string_view> live;
    table.for_each([&](const RecordView& row) {
      for (std::size_t c = 0; c < row.width(); ++c) live.insert(row.at(c).as_text());
      return true;
    });
    ASSERT_EQ(table.text_pool().size(), live.size()) << "after insert " << i;
    // Freed ids are reused: the id space stays within what one row more
    // than the ring can reference.
    ASSERT_LE(table.text_pool().id_space(), (kCap + 1) * leases.width());
  }
  EXPECT_EQ(table.evicted(), 9 * kCap);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.text_pool().size(), 0u);
  EXPECT_EQ(table.text_pool().id_space(), 0u);
}

TEST(DatabaseSnapshot, RestoreRejectsColumnTypesOtherThanTheTables) {
  // A column's type picks how its block is coded, so a chunk cannot hold a
  // cell of another type than its column; a chunk whose column types
  // differ from the live table's is refused over that table.
  sim::EventLoop loop;
  Database db(loop);
  const Schema links("Links", {{"mac", ColumnType::Text},
                               {"rssi", ColumnType::Real},
                               {"retries", ColumnType::Int},
                               {"seen", ColumnType::Ts}});
  ASSERT_TRUE(db.create_table(links, 8).ok());
  loop.run_for(kSecond);
  ASSERT_TRUE(db.insert("Links", {Value{"m1"}, Value{-40.5}, Value{3},
                                  Value::ts(7)}).ok());
  const Bytes valid = htbl_chunk(db, "Links");
  // Each column definition's type byte follows its name.
  std::vector<std::size_t> type_at;
  std::size_t at = 4 + links.name().size() + 3 * 8 + 4;
  for (const ColumnDef& col : links.columns()) {
    at += 4 + col.name.size();
    ASSERT_EQ(valid[at], static_cast<std::uint8_t>(col.type));
    type_at.push_back(at++);
  }
  const auto with_chunk = [](const Bytes& chunk) {
    snapshot::Writer w;
    w.begin_chunk(snapshot::tag("HTBL")).raw(chunk);
    w.end_chunk();
    return std::move(w).finish();
  };
  {
    const Bytes image = with_chunk(valid);
    Database fresh(loop);
    ASSERT_TRUE(fresh.restore(snapshot::Reader::parse(image).value()).ok());
    EXPECT_EQ(fresh.table("Links")->size(), 1u);
  }
  for (std::size_t col = 0; col < type_at.size(); ++col) {
    const std::size_t offset = type_at[col];
    for (std::uint8_t type = 0; type <= 4; ++type) {
      if (type == valid[offset]) continue;
      Bytes bad = valid;
      bad[offset] = type;
      const Bytes image = with_chunk(bad);
      auto reader = snapshot::Reader::parse(image);
      ASSERT_TRUE(reader.ok());
      const Status s = db.restore(reader.value());
      ASSERT_FALSE(s.ok()) << "type " << int{type} << " at " << offset;
      EXPECT_EQ(htbl_chunk(db, "Links"), valid);
      // A fresh home takes the chunk's own schema, when its blocks decode
      // under it.
      Database fresh(loop);
      if (fresh.restore(reader.value()).ok()) {
        EXPECT_EQ(fresh.table("Links")->schema().columns()[col].type,
                  static_cast<ColumnType>(type));
      }
    }
  }
}

TEST(DatabaseSnapshot, RestoreKeepsTheNewestRowsThatFit) {
  // A chunk holding six rows of a table whose capacity it gives as four.
  ByteWriter c;
  snapshot::put_string(c, "T");
  c.u64(4);  // capacity
  c.u64(6);  // inserted
  c.u64(2);  // evicted
  c.u32(1);
  snapshot::put_string(c, "n");
  c.u8(static_cast<std::uint8_t>(ColumnType::Int));
  c.u32(0);  // strings
  c.u32(6);  // rows
  // The ts block: rows one second apart, so the delta changes once.
  oracle::put_varint(c, 0);
  oracle::put_varint(c, oracle::zigzag(kSecond));
  for (int i = 2; i < 6; ++i) oracle::put_varint(c, 0);
  // The n block: 0, 1, ... 5, each one more than the row before.
  oracle::put_varint(c, 0);
  for (int i = 1; i < 6; ++i) oracle::put_varint(c, oracle::zigzag(1));
  snapshot::Writer w;
  w.begin_chunk(snapshot::tag("HTBL")).raw(c.bytes());
  w.end_chunk();
  const Bytes image = std::move(w).finish();
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.restore(snapshot::Reader::parse(image).value()).ok());
  const Table& t = *db.table("T");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.oldest().ts(), 2 * kSecond);
  EXPECT_EQ(t.oldest().at(0).as_int(), 2);
  EXPECT_EQ(t.newest().at(0).as_int(), 5);
  EXPECT_EQ(t.inserted(), 6u);
  EXPECT_EQ(t.evicted(), 2u);
}

TEST_F(StandardTablesFixture, DocQueriesRunCleanly) {
  for (const char* text : kDocQueries) {
    auto rs = db.query(text);
    EXPECT_TRUE(rs.ok()) << text << ": " << (rs.ok() ? "" : rs.error().message);
  }
}

TEST_F(StandardTablesFixture, TruncatedQueriesNeverCrash) {
  for (const std::string text : kDocQueries) {
    for (std::size_t len = 0; len <= text.size(); ++len) probe(text.substr(0, len));
  }
  // Every full query and some of its prefixes (cut after a clause) parse.
  EXPECT_GT(parsed, static_cast<int>(std::size(kDocQueries)));
}

TEST_F(StandardTablesFixture, ByteFlippedQueriesNeverCrash) {
  Rng rng(0xf11b);
  for (const std::string text : kDocQueries) {
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
      for (int trial = 0; trial < 4; ++trial) {
        std::string flipped = text;
        flipped[pos] = static_cast<char>(
            static_cast<std::uint8_t>(flipped[pos]) ^ (1 + rng.uniform(255)));
        probe(flipped);
      }
    }
  }
  // Flips inside literals, numbers and identifiers still parse; some of
  // those execute and some fail on an unknown column or table.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(executed, 0);
  EXPECT_GT(parsed, executed);
}

TEST_F(StandardTablesFixture, GarbagePrefixedQueriesNeverCrash) {
  Rng rng(0x9a4ba9e);
  for (const std::string text : kDocQueries) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string garbage(1 + rng.uniform(16), '\0');
      for (auto& ch : garbage) ch = static_cast<char>(rng.uniform(256));
      probe(garbage + text);
      probe(garbage + " " + text);
    }
  }
}

}  // namespace
}  // namespace hw::hwdb
