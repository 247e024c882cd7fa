#include "hwdb/database.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>

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

/// One decoded HTBL chunk, applied only once every chunk decoded. Rows are
/// already cells; a text cell holds an index into `strings`.
struct TableImage {
  std::string name;
  std::uint64_t capacity = 0;
  std::uint64_t inserted = 0;
  std::uint64_t evicted = 0;
  std::vector<ColumnDef> columns;
  std::vector<std::string> strings;
  std::vector<std::uint64_t> cells;
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
  // reserved: a column takes at least 5 bytes, a string 4.
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
    if (col_type.value() > static_cast<std::uint8_t>(ColumnType::Ts)) {
      return make_error("hwdb snapshot: unknown column type");
    }
    t.columns.push_back(ColumnDef{std::move(col_name).take(),
                                  static_cast<ColumnType>(col_type.value())});
  }
  auto nstrings = br.u32();
  if (!nstrings) return nstrings.error();
  if (nstrings.value() > br.remaining() / 4) {
    return make_error("hwdb snapshot: string count past chunk end");
  }
  t.strings.reserve(nstrings.value());
  for (std::uint32_t i = 0; i < nstrings.value(); ++i) {
    auto str = snapshot::get_string(br);
    if (!str) return str.error();
    t.strings.push_back(std::move(str).take());
  }
  auto nrows = br.u32();
  if (!nrows) return nrows.error();
  // A row takes at least 8 bytes of ts and 5 per cell (tag and string id).
  const std::size_t stride = t.columns.size() + 1;
  if (nrows.value() > br.remaining() / (8 + 5 * t.columns.size())) {
    return make_error("hwdb snapshot: row count past chunk end");
  }
  // Each cell carries its value's type tag, which must be its column's.
  t.cells.reserve(nrows.value() * stride);
  for (std::uint32_t i = 0; i < nrows.value(); ++i) {
    auto ts = br.u64();
    if (!ts) return ts.error();
    t.cells.push_back(ts.value());
    for (const ColumnDef& col : t.columns) {
      auto type = br.u8();
      if (!type) return type.error();
      if (type.value() != static_cast<std::uint8_t>(col.type)) {
        return make_error("hwdb snapshot: " + t.name + "." + col.name +
                          " holds a value of the wrong type");
      }
      if (col.type == ColumnType::Text) {
        auto id = br.u32();
        if (!id) return id.error();
        if (id.value() >= t.strings.size()) {
          return make_error("hwdb snapshot: string id out of range");
        }
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

}  // namespace

void Database::save(snapshot::Writer& w) const {
  // tables_ is an ordered map, so the chunk sequence is deterministic.
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> chunk_id;
  std::vector<std::string_view> strings;
  for (const auto& [name, table] : tables_) {
    // The chunk's string table lists the pool's strings in order of first
    // use, oldest row first; rows carry those indexes. It precedes the
    // rows, so rows go to a scratch writer first.
    chunk_id.assign(table->text_pool().id_space(), kUnseen);
    strings.clear();
    const auto& columns = table->schema().columns();
    ByteWriter rows;
    table->for_each([&](const RecordView& row) {
      rows.u64(row.ts());
      for (std::size_t col = 0; col < columns.size(); ++col) {
        const ColumnType type = columns[col].type;
        rows.u8(static_cast<std::uint8_t>(type));
        if (type != ColumnType::Text) {
          rows.u64(row.cell(col));
          continue;
        }
        const auto pool_id = static_cast<std::uint32_t>(row.cell(col));
        std::uint32_t& id = chunk_id[pool_id];
        if (id == kUnseen) {
          id = static_cast<std::uint32_t>(strings.size());
          strings.push_back(table->text_pool().text(pool_id));
        }
        rows.u32(id);
      }
      return true;
    });
    ByteWriter& c = w.begin_chunk(kTableTag);
    snapshot::put_string(c, name);
    c.u64(table->capacity());
    c.u64(table->inserted());
    c.u64(table->evicted());
    c.u32(static_cast<std::uint32_t>(columns.size()));
    for (const auto& col : columns) {
      snapshot::put_string(c, col.name);
      c.u8(static_cast<std::uint8_t>(col.type));
    }
    c.u32(static_cast<std::uint32_t>(strings.size()));
    for (const std::string_view s : strings) snapshot::put_string(c, s);
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
    if (auto s = t->restore(std::move(img.cells), std::move(img.strings),
                            img.inserted, img.evicted);
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
