#include "hwdb/database.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <span>
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

// An HTBL chunk holds the table's header, its string table (front-coded,
// each string after the one before), then one block per column, ts first,
// each with one entry per row, oldest row first:
//   ts         zigzag varint of the delta of deltas;
//   Int, Ts    zigzag varint of the delta from the row before;
//   Text       varint index into the chunk's string table;
//   Real       the bits XORed with the series' value before (series_column):
//              a mask byte whose bit i flags byte i (least significant
//              first) as written, then those bytes. A byte that XORs to zero
//              is left out, except in a wall-clock series, where all eight
//              are written so the value cannot change the chunk's size.
// The row before a block's first row, and a series' value before its first,
// read as zero. The column's type picks the coding, so a cell of another
// type cannot be written; every entry takes at least one byte.

std::uint64_t zigzag(std::uint64_t v) { return (v << 1) ^ (0 - (v >> 63)); }
std::uint64_t unzigzag(std::uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

void put_xor(ByteWriter& w, std::uint64_t x, bool full_width) {
  std::uint8_t buf[9];
  std::size_t n = 1;
  std::uint8_t mask = 0;
  for (int i = 0; i < 8; ++i, x >>= 8) {
    if ((x & 0xFFu) == 0 && !full_width) continue;
    mask = static_cast<std::uint8_t>(mask | 1u << i);
    buf[n++] = static_cast<std::uint8_t>(x);
  }
  buf[0] = mask;
  w.raw(buf, n);
}

// Column-block readers over a cursor into the chunk: each takes one entry
// off its front, or fails at the end of the bytes.
bool next_varint(std::span<const std::uint8_t>& in, std::uint64_t& out) {
  const std::size_t n = snapshot::take_varint(in, out);
  in = in.subspan(n);
  return n != 0;
}

bool next_xor(std::span<const std::uint8_t>& in, std::uint64_t& out) {
  if (in.empty()) return false;
  const unsigned mask = in[0];
  const std::size_t n = 1 + static_cast<std::size_t>(std::popcount(mask));
  if (in.size() < n) return false;
  std::uint64_t v = 0;
  const std::uint8_t* p = in.data() + 1;
  for (unsigned i = 0; i < 8; ++i) {
    if ((mask >> i & 1u) != 0) v |= std::uint64_t{*p++} << (8 * i);
  }
  out = v;
  in = in.subspan(n);
  return true;
}

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

/// Decodes the column blocks of `nrows` rows into `t.cells`, row-major.
Status decode_blocks(std::span<const std::uint8_t> in, std::size_t nrows,
                     TableImage& t) {
  const std::size_t stride = t.columns.size() + 1;
  t.cells.resize(nrows * stride);
  const auto truncated = [&] {
    return Status::failure("hwdb snapshot: " + t.name + ": truncated column block");
  };
  const int series = series_column(t.columns);
  std::vector<std::uint64_t> last;  // a Real column's value before, by series
  std::uint64_t v = 0;
  std::uint64_t ts = 0;
  std::uint64_t delta = 0;
  for (std::size_t r = 0; r < nrows; ++r) {
    if (!next_varint(in, v)) return truncated();
    delta += unzigzag(v);
    ts += delta;
    t.cells[r * stride] = ts;
  }
  for (std::size_t col = 0; col < t.columns.size(); ++col) {
    std::uint64_t* cell = t.cells.data() + col + 1;
    std::uint64_t prev = 0;
    switch (t.columns[col].type) {
      case ColumnType::Int:
      case ColumnType::Ts:
        for (std::size_t r = 0; r < nrows; ++r, cell += stride) {
          if (!next_varint(in, v)) return truncated();
          *cell = prev += unzigzag(v);
        }
        break;
      case ColumnType::Real:
        // The series column comes first, so its ids are decoded and checked.
        last.assign(series < 0 ? 1 : t.strings.size(), 0);
        for (std::size_t r = 0; r < nrows; ++r, cell += stride) {
          if (!next_xor(in, v)) return truncated();
          std::uint64_t& before =
              last[series < 0 ? 0 : t.cells[r * stride + 1 + series]];
          *cell = before ^= v;
        }
        break;
      case ColumnType::Text:
        for (std::size_t r = 0; r < nrows; ++r, cell += stride) {
          if (!next_varint(in, v)) return truncated();
          if (v >= t.strings.size()) {
            return Status::failure("hwdb snapshot: string id out of range");
          }
          *cell = v;
        }
        break;
    }
  }
  if (!in.empty()) {
    return Status::failure("hwdb snapshot: " + t.name +
                           ": bytes past the last column block");
  }
  return {};
}

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
  // reserved: a column takes at least 5 bytes, a string 2.
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
  if (nstrings.value() > br.remaining() / 2) {
    return make_error("hwdb snapshot: string count past chunk end");
  }
  t.strings.reserve(nstrings.value());
  for (std::uint32_t i = 0; i < nstrings.value(); ++i) {
    auto str = snapshot::get_front_coded(
        br, t.strings.empty() ? std::string_view{} : t.strings.back());
    if (!str) return str.error();
    t.strings.push_back(std::move(str).take());
  }
  auto nrows = br.u32();
  if (!nrows) return nrows.error();
  // Every entry of every block, ts included, takes at least one byte.
  if (nrows.value() > br.remaining() / (t.columns.size() + 1)) {
    return make_error("hwdb snapshot: row count past chunk end");
  }
  if (auto s = decode_blocks(br.rest(), nrows.value(), t); !s.ok()) return s.error();
  return t;
}

}  // namespace

void Database::save(snapshot::Writer& w) const {
  // tables_ is an ordered map, so the chunk sequence is deterministic.
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> chunk_id;
  std::vector<std::string_view> strings;
  std::vector<char> wall_clock;      // by chunk string id
  std::vector<std::uint64_t> last;   // a Real column's value before, by series
  for (const auto& [name, table] : tables_) {
    const auto& columns = table->schema().columns();
    const int series = series_column(columns);
    // The chunk's string table lists the pool's strings in order of first
    // use, oldest row first and left to right within a row; text entries
    // carry those indexes.
    chunk_id.assign(table->text_pool().id_space(), kUnseen);
    strings.clear();
    if (table->text_pool().size() != 0) {
      table->for_each([&](const RecordView& row) {
        for (std::size_t col = 0; col < columns.size(); ++col) {
          if (columns[col].type != ColumnType::Text) continue;
          const auto pool_id = static_cast<std::uint32_t>(row.cell(col));
          std::uint32_t& id = chunk_id[pool_id];
          if (id == kUnseen) {
            id = static_cast<std::uint32_t>(strings.size());
            strings.push_back(table->text_pool().text(pool_id));
          }
        }
        return true;
      });
    }
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
    std::string_view prev;
    wall_clock.clear();
    for (const std::string_view s : strings) {
      snapshot::put_front_coded(c, prev, s);
      prev = s;
      wall_clock.push_back(table->schema().wall_clock(s) ? 1 : 0);
    }
    c.u32(static_cast<std::uint32_t>(table->size()));

    std::uint64_t ts = 0;
    std::uint64_t delta = 0;
    table->for_each([&](const RecordView& row) {
      const std::uint64_t d = row.ts() - ts;
      snapshot::put_varint(c, zigzag(d - delta));
      ts = row.ts();
      delta = d;
      return true;
    });
    for (std::size_t col = 0; col < columns.size(); ++col) {
      std::uint64_t prev = 0;
      switch (columns[col].type) {
        case ColumnType::Int:
        case ColumnType::Ts:
          table->for_each([&](const RecordView& row) {
            snapshot::put_varint(c, zigzag(row.cell(col) - prev));
            prev = row.cell(col);
            return true;
          });
          break;
        case ColumnType::Real:
          last.assign(series < 0 ? 1 : strings.size(), 0);
          table->for_each([&](const RecordView& row) {
            const std::uint32_t id = series < 0 ? 0 : chunk_id[row.cell(series)];
            put_xor(c, row.cell(col) ^ last[id], series >= 0 && wall_clock[id] != 0);
            last[id] = row.cell(col);
            return true;
          });
          break;
        case ColumnType::Text:
          table->for_each([&](const RecordView& row) {
            snapshot::put_varint(c, chunk_id[row.cell(col)]);
            return true;
          });
          break;
      }
    }
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
