// hwdb tables: typed schemas over bounded circular buffers. "…an active
// ephemeral stream database which stores ephemeral events into a fixed size
// memory buffer. It links events into tables…" (paper §2).
#pragma once

#include <string>
#include <vector>

#include "hwdb/value.hpp"
#include "util/result.hpp"
#include "util/ring_buffer.hpp"

namespace hw::hwdb {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::Text;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::string table_name, std::vector<ColumnDef> columns)
      : name_(std::move(table_name)), columns_(std::move(columns)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<ColumnDef>& columns() const { return columns_; }
  /// Column index by (case-insensitive) name, -1 if absent.
  [[nodiscard]] int column_index(const std::string& column) const;
  [[nodiscard]] std::size_t width() const { return columns_.size(); }

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
};

/// One stored event: insertion timestamp plus column values.
struct Row {
  Timestamp ts = 0;
  std::vector<Value> values;
};

class Table {
 public:
  Table(Schema schema, std::size_t capacity)
      : schema_(std::move(schema)), rows_(capacity) {}

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] std::size_t capacity() const { return rows_.capacity(); }
  [[nodiscard]] std::uint64_t evicted() const { return rows_.evicted(); }
  [[nodiscard]] std::uint64_t inserted() const { return inserted_; }

  /// Validates arity and types (Int accepted where Real expected and vice
  /// versa with conversion) and appends the row, evicting the oldest when
  /// full.
  Status insert(Timestamp now, std::vector<Value> values);

  [[nodiscard]] const RingBuffer<Row>& rows() const { return rows_; }
  /// Newest insertion timestamp (0 when empty).
  [[nodiscard]] Timestamp newest_ts() const {
    return rows_.empty() ? 0 : rows_.newest().ts;
  }

  void clear() { rows_.clear(); }

  /// Snapshot restore: `rows` (validated, oldest first) become the ring's
  /// storage rather than being copied into it, and the inserted/evicted
  /// lifetime counters the captured table reported are overwritten. Fails —
  /// table untouched — on arity mismatch.
  Status restore_rows(std::vector<Row> rows, std::uint64_t inserted,
                      std::uint64_t evicted);

 private:
  Schema schema_;
  RingBuffer<Row> rows_;
  std::uint64_t inserted_ = 0;
};

}  // namespace hw::hwdb
