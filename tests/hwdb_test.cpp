// hwdb: typed tables over ring buffers, the CQL-variant parser, windowed
// query execution with filters/grouping/aggregates, and continuous queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <unordered_map>

#include "hwdb/cql_parser.hpp"
#include "hwdb/database.hpp"
#include "hwdb/executor.hpp"
#include "homework/event_export.hpp"
#include "util/rand.hpp"
#include "util/strings.hpp"

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
  EXPECT_EQ(t.rows().newest().values[3].type(), ColumnType::Real);
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
  EXPECT_EQ(t.rows().oldest().values[2].as_int(), 6);
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
    ASSERT_TRUE(db.insert(table, std::move(v)).ok());
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
// (printable) text.


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
  AsOfIndex(const Table& right, int key_column) : right_(right) {
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
  const Table& right_;
  std::unordered_map<std::string, std::vector<std::size_t>> keys_;
  std::size_t pos_ = 0;
};

Result<ResultSet> execute(const SelectQuery& q, const Table& table,
                          const Table* right, Timestamp now) {
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

/// Random contents for a Flows-like driving table (one column of each type)
/// and a Names table to join against. Text is printable; Reals include
/// distinct values that render equal under %.6g.
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

  Table left;
  Table right;
  Timestamp now = 0;
};

/// Generates CQL text over RandomTables: every window kind, WHERE trees of
/// every operator, every aggregate over every column type and ts, GROUP BY
/// on each type, joins and LIMIT.
class QueryGen {
 public:
  explicit QueryGen(Rng& rng) : rng_(rng) {}

  std::string next() {
    join_ = rng_.chance(0.25);
    std::vector<std::string> cols = {"device", "app", "bytes", "rtt", "seen", "ts"};
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
    q += " FROM Flows";
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
  bool join_ = false;
};

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
    const Table* right = q.value().join ? &tables.right : nullptr;
    auto got = execute(q.value(), tables.left, right, tables.now);
    auto want = oracle::execute(q.value(), tables.left, right, tables.now);
    ASSERT_EQ(got.ok(), want.ok()) << text;
    if (!want.ok()) {
      EXPECT_EQ(got.error().message, want.error().message) << text;
      continue;
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
    grouped += q.value().group_by.empty() ? 0 : 1;
    joined += right != nullptr ? 1 : 0;
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
