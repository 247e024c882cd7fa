// The Homework Database: named ephemeral tables, ad-hoc queries, and
// continuous queries (subscriptions) re-evaluated either periodically or on
// insert, pushing deltas/results to registered callbacks. "The database
// supports a simple UDP-based RPC interface enabling applications to
// subscribe to query results, persisting output as desired." (paper §2)
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "hwdb/cql_parser.hpp"
#include "hwdb/executor.hpp"
#include "hwdb/table.hpp"
#include "sim/event_loop.hpp"
#include "snapshot/snapshottable.hpp"
#include "telemetry/metrics.hpp"

namespace hw::hwdb {

using SubscriptionId = std::uint64_t;
using SubscriptionCallback =
    std::function<void(SubscriptionId, const ResultSet&)>;

enum class SubscriptionMode {
  Periodic,  // re-run every `period`
  OnInsert,  // re-run whenever the queried table receives an insert
};

class Database final : public snapshot::Snapshottable {
 public:
  /// `metrics` scopes the database's instruments; defaults to the calling
  /// thread's active registry so each fleet home measures itself.
  explicit Database(sim::EventLoop& loop,
                    telemetry::MetricRegistry& metrics =
                        telemetry::MetricRegistry::current())
      : loop_(loop), metrics_(metrics) {}
  ~Database() override = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -- Snapshottable (one 'HTBL' chunk per table + 'HMET' metadata) -----------
  // Captures every table's schema, ring contents and lifetime counters, plus
  // the next subscription id. Restore refills the rings directly — no
  // subscription fires, no insert telemetry, no re-stamping with now() —
  // and leaves live subscriptions registered: owners re-register on a fresh
  // home, a warm restart keeps them.
  void save(snapshot::Writer& w) const override;
  Status restore(const snapshot::Reader& r) override;

  /// Creates a table over a bounded ring buffer. Fails if the name is taken.
  Status create_table(Schema schema, std::size_t capacity);
  [[nodiscard]] Table* table(std::string_view name);
  [[nodiscard]] const Table* table(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> table_names() const;

  /// Inserts a row stamped with the current virtual time. The cells are
  /// views (text included): the table copies what it keeps.
  Status insert(std::string_view table_name, std::span<const ValueRef> values);
  Status insert(std::string_view table_name,
                std::initializer_list<ValueRef> values) {
    return insert(table_name,
                  std::span<const ValueRef>(values.begin(), values.size()));
  }

  /// Parses and runs a query text.
  Result<ResultSet> query(std::string_view text) const;
  /// Runs a pre-parsed query.
  Result<ResultSet> query(const SelectQuery& q) const;

  /// Registers a continuous query. Periodic mode re-runs every `period`;
  /// OnInsert mode fires after each insert into the query's table. Returns
  /// an id for unsubscribe(). Fails if the query doesn't parse or its table
  /// doesn't exist.
  Result<SubscriptionId> subscribe(std::string_view query_text,
                                   SubscriptionMode mode, Duration period,
                                   SubscriptionCallback cb);
  void unsubscribe(SubscriptionId id);
  [[nodiscard]] std::size_t subscription_count() const { return subs_.size(); }

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : inserts{reg, "hwdb.database.inserts"},
          queries{reg, "hwdb.database.queries"},
          subscription_fires{reg, "hwdb.database.subscription_fires"},
          insert_errors{reg, "hwdb.database.insert_errors"},
          tables{reg, "hwdb.database.tables"},
          insert_ns{reg, "hwdb.database.insert_ns"} {}
    telemetry::Counter inserts;
    telemetry::Counter queries;
    telemetry::Counter subscription_fires;
    telemetry::Counter insert_errors;
    telemetry::Gauge tables;
    telemetry::Histogram insert_ns;  // insert latency, nanoseconds
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] sim::EventLoop& loop() const { return loop_; }

 private:
  struct Subscription {
    SubscriptionId id = 0;
    SelectQuery query;
    SubscriptionMode mode = SubscriptionMode::Periodic;
    SubscriptionCallback cb;
    std::unique_ptr<sim::PeriodicTimer> timer;
  };

  void fire(Subscription& sub);

  sim::EventLoop& loop_;
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
  std::map<SubscriptionId, std::unique_ptr<Subscription>> subs_;
  SubscriptionId next_sub_id_ = 1;
  // Mutable: query() is logically const but still counts.
  mutable Instruments metrics_;
};

}  // namespace hw::hwdb
