#include "hwdb/database.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "util/logging.hpp"

namespace hw::hwdb {
namespace {
constexpr std::string_view kLog = "hwdb";
}  // namespace

Status Database::create_table(Schema schema, std::size_t capacity) {
  const std::string name = schema.name();
  if (tables_.count(name) != 0) {
    return Status::failure("table exists: " + name);
  }
  if (capacity == 0) return Status::failure("table capacity must be > 0");
  tables_.emplace(name, std::make_unique<Table>(std::move(schema), capacity));
  metrics_.tables.set(static_cast<std::int64_t>(tables_.size()));
  return {};
}

Table* Database::table(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

Status Database::insert(const std::string& table_name, std::vector<Value> values) {
  const telemetry::ScopedTimer timer(metrics_.insert_ns);
  Table* t = table(table_name);
  if (t == nullptr) {
    metrics_.insert_errors.inc();
    return Status::failure("no such table: " + table_name);
  }
  auto status = t->insert(loop_.now(), std::move(values));
  if (!status.ok()) {
    metrics_.insert_errors.inc();
    HW_LOG_WARN(kLog, "%s", status.error().message.c_str());
    return status;
  }
  metrics_.inserts.inc();

  // Fire on-insert continuous queries bound to this table.
  for (auto& [id, sub] : subs_) {
    if (sub->mode == SubscriptionMode::OnInsert && sub->query.table == table_name) {
      fire(*sub);
    }
  }
  return {};
}

Result<ResultSet> Database::query(std::string_view text) const {
  auto parsed = parse_query(text);
  if (!parsed) return parsed.error();
  return query(parsed.value());
}

Result<ResultSet> Database::query(const SelectQuery& q) const {
  metrics_.queries.inc();
  const Table* t = table(q.table);
  if (t == nullptr) return make_error("no such table: " + q.table);
  const Table* right = nullptr;
  if (q.join) {
    right = table(q.join->table);
    if (right == nullptr) {
      return make_error("no such table: " + q.join->table);
    }
  }
  return execute(q, *t, right, loop_.now());
}

Result<SubscriptionId> Database::subscribe(std::string_view query_text,
                                           SubscriptionMode mode, Duration period,
                                           SubscriptionCallback cb) {
  auto parsed = parse_query(query_text);
  if (!parsed) return parsed.error();
  if (table(parsed.value().table) == nullptr) {
    return make_error("no such table: " + parsed.value().table);
  }
  if (mode == SubscriptionMode::Periodic && period == 0) {
    return make_error("periodic subscription needs period > 0");
  }

  auto sub = std::make_unique<Subscription>();
  sub->id = next_sub_id_++;
  sub->query = std::move(parsed).take();
  sub->mode = mode;
  sub->cb = std::move(cb);

  Subscription* raw = sub.get();
  if (mode == SubscriptionMode::Periodic) {
    sub->timer = std::make_unique<sim::PeriodicTimer>(loop_, period,
                                                      [this, raw] { fire(*raw); });
    sub->timer->start();
  }
  const SubscriptionId id = sub->id;
  subs_.emplace(id, std::move(sub));
  return id;
}

void Database::unsubscribe(SubscriptionId id) { subs_.erase(id); }

void Database::fire(Subscription& sub) {
  auto result = query(sub.query);
  if (!result) {
    HW_LOG_WARN(kLog, "subscription %llu failed: %s",
                static_cast<unsigned long long>(sub.id),
                result.error().message.c_str());
    return;
  }
  metrics_.subscription_fires.inc();
  sub.cb(sub.id, result.value());
}

namespace {

constexpr std::uint32_t kTableTag = snapshot::tag("HTBL");
constexpr std::uint32_t kMetaTag = snapshot::tag("HMET");

/// Interns a table's text values: each distinct string is written once in
/// the chunk's string table and rows carry its u32 id.
class StringTable {
 public:
  std::uint32_t id(std::string_view s) {
    const auto [it, added] =
        ids_.try_emplace(s, static_cast<std::uint32_t>(strings_.size()));
    if (added) strings_.push_back(s);
    return it->second;
  }
  [[nodiscard]] const std::vector<std::string_view>& strings() const {
    return strings_;
  }

 private:
  std::unordered_map<std::string_view, std::uint32_t> ids_;
  std::vector<std::string_view> strings_;
};

void put_value(ByteWriter& w, const Value& v, StringTable& strings) {
  w.u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ColumnType::Int:
      w.u64(static_cast<std::uint64_t>(v.as_int()));
      break;
    case ColumnType::Real:
      w.u64(std::bit_cast<std::uint64_t>(v.as_real()));
      break;
    case ColumnType::Text:
      w.u32(strings.id(v.as_text()));
      break;
    case ColumnType::Ts:
      w.u64(v.as_ts());
      break;
  }
}

Result<Value> get_value(ByteReader& r, const std::vector<std::string>& strings) {
  auto type = r.u8();
  if (!type) return type.error();
  switch (static_cast<ColumnType>(type.value())) {
    case ColumnType::Int: {
      auto v = r.u64();
      if (!v) return v.error();
      return Value{static_cast<std::int64_t>(v.value())};
    }
    case ColumnType::Real: {
      auto v = r.u64();
      if (!v) return v.error();
      return Value{std::bit_cast<double>(v.value())};
    }
    case ColumnType::Text: {
      auto id = r.u32();
      if (!id) return id.error();
      if (id.value() >= strings.size()) {
        return make_error("hwdb snapshot: string id out of range");
      }
      return Value{strings[id.value()]};
    }
    case ColumnType::Ts: {
      auto v = r.u64();
      if (!v) return v.error();
      return Value::ts(v.value());
    }
  }
  return make_error("hwdb snapshot: unknown value type");
}

/// One decoded HTBL chunk, applied only once every chunk decoded.
struct TableImage {
  std::string name;
  std::uint64_t capacity = 0;
  std::uint64_t inserted = 0;
  std::uint64_t evicted = 0;
  std::vector<ColumnDef> columns;
  std::vector<Row> rows;
};

Result<TableImage> decode_table(const Bytes& chunk) {
  ByteReader br(chunk);
  TableImage t;
  auto name = snapshot::get_string(br);
  if (!name) return name.error();
  t.name = std::move(name).take();
  auto capacity = br.u64();
  auto inserted = br.u64();
  auto evicted = br.u64();
  auto ncols = br.u32();
  if (!capacity || !inserted || !evicted || !ncols) {
    return make_error("hwdb snapshot: truncated table header");
  }
  t.capacity = capacity.value();
  t.inserted = inserted.value();
  t.evicted = evicted.value();
  // Every count is checked against the bytes left before anything is
  // reserved: a column takes at least 5 bytes, a string 4, a row 8.
  if (ncols.value() > br.remaining() / 5) {
    return make_error("hwdb snapshot: column count past chunk end");
  }
  t.columns.reserve(ncols.value());
  for (std::uint32_t i = 0; i < ncols.value(); ++i) {
    auto col_name = snapshot::get_string(br);
    auto col_type = br.u8();
    if (!col_name || !col_type) {
      return make_error("hwdb snapshot: truncated column defs");
    }
    t.columns.push_back(ColumnDef{std::move(col_name).take(),
                                  static_cast<ColumnType>(col_type.value())});
  }
  auto nstrings = br.u32();
  if (!nstrings) return nstrings.error();
  if (nstrings.value() > br.remaining() / 4) {
    return make_error("hwdb snapshot: string count past chunk end");
  }
  std::vector<std::string> strings;
  strings.reserve(nstrings.value());
  for (std::uint32_t i = 0; i < nstrings.value(); ++i) {
    auto str = snapshot::get_string(br);
    if (!str) return str.error();
    strings.push_back(std::move(str).take());
  }
  auto nrows = br.u32();
  if (!nrows) return nrows.error();
  if (nrows.value() > br.remaining() / 8) {
    return make_error("hwdb snapshot: row count past chunk end");
  }
  t.rows.reserve(nrows.value());
  for (std::uint32_t i = 0; i < nrows.value(); ++i) {
    Row row;
    auto ts = br.u64();
    if (!ts) return ts.error();
    row.ts = ts.value();
    row.values.reserve(t.columns.size());
    for (std::size_t col = 0; col < t.columns.size(); ++col) {
      auto v = get_value(br, strings);
      if (!v) return v.error();
      row.values.push_back(std::move(v).take());
    }
    t.rows.push_back(std::move(row));
  }
  return t;
}

}  // namespace

void Database::save(snapshot::Writer& w) const {
  // tables_ is an ordered map, so the chunk sequence is deterministic.
  for (const auto& [name, table] : tables_) {
    // Rows go to a scratch writer first: the string table they fill is
    // written ahead of them.
    StringTable strings;
    ByteWriter rows;
    table->rows().for_each([&](const Row& row) {
      rows.u64(row.ts);
      for (const Value& v : row.values) put_value(rows, v, strings);
      return true;
    });
    ByteWriter& c = w.begin_chunk(kTableTag);
    snapshot::put_string(c, name);
    c.u64(table->capacity());
    c.u64(table->inserted());
    c.u64(table->evicted());
    const auto& columns = table->schema().columns();
    c.u32(static_cast<std::uint32_t>(columns.size()));
    for (const auto& col : columns) {
      snapshot::put_string(c, col.name);
      c.u8(static_cast<std::uint8_t>(col.type));
    }
    c.u32(static_cast<std::uint32_t>(strings.strings().size()));
    for (const std::string_view s : strings.strings()) {
      snapshot::put_string(c, s);
    }
    c.u32(static_cast<std::uint32_t>(table->size()));
    c.raw(rows.bytes());
    w.end_chunk();
  }
  ByteWriter& meta = w.begin_chunk(kMetaTag);
  meta.u64(next_sub_id_);
  w.end_chunk();
}

Status Database::restore(const snapshot::Reader& r) {
  // Decode and check every chunk before touching a table, so a corrupt
  // chunk leaves the whole database as it was.
  std::vector<TableImage> images;
  for (const Bytes* chunk : r.find_all(kTableTag)) {
    auto t = decode_table(*chunk);
    if (!t) return t.error();
    const TableImage& img = t.value();
    for (const TableImage& earlier : images) {
      if (earlier.name == img.name) {
        return make_error("hwdb snapshot: table " + img.name + " twice");
      }
    }
    if (const Table* existing = table(img.name); existing != nullptr) {
      bool same = existing->capacity() == img.capacity &&
                  existing->schema().columns().size() == img.columns.size();
      for (std::size_t i = 0; same && i < img.columns.size(); ++i) {
        same = existing->schema().columns()[i].name == img.columns[i].name &&
               existing->schema().columns()[i].type == img.columns[i].type;
      }
      if (!same) {
        return Status::failure("hwdb snapshot: schema mismatch for table " +
                               img.name);
      }
    } else if (img.capacity == 0) {
      return make_error("hwdb snapshot: table capacity must be > 0");
    }
    images.push_back(std::move(t).take());
  }
  std::optional<std::uint64_t> next_id;
  if (const Bytes* meta = r.find(kMetaTag); meta != nullptr) {
    ByteReader br(*meta);
    auto id = br.u64();
    if (!id) return id.error();
    next_id = id.value();
  }

  for (TableImage& img : images) {
    Table* t = table(img.name);
    if (t == nullptr) {
      // A table this home has not (yet) created: materialize it.
      if (auto s = create_table(Schema(img.name, img.columns), img.capacity);
          !s.ok()) {
        return s;
      }
      t = table(img.name);
    }
    if (auto s = t->restore_rows(std::move(img.rows), img.inserted,
                                 img.evicted);
        !s.ok()) {
      return s;
    }
  }
  // Live subscriptions keep their ids; only make sure new ones never
  // collide with ids the captured home had handed out.
  if (next_id) next_sub_id_ = std::max(next_sub_id_, *next_id);
  metrics_.tables.set(static_cast<std::int64_t>(tables_.size()));
  return Status::success();
}

}  // namespace hw::hwdb
