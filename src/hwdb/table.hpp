// hwdb tables: typed schemas over bounded circular buffers. "…an active
// ephemeral stream database which stores ephemeral events into a fixed size
// memory buffer. It links events into tables…" (paper §2).
//
// A row is a fixed-width record: its insertion timestamp, then one 8-byte
// cell per column (int64, double bits, Timestamp, or the id of a string in
// the table's text pool). Every record lives in one flat ring of cells, so a
// row costs its cells and nothing else.
#pragma once

#include <cassert>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hwdb/value.hpp"
#include "util/result.hpp"

namespace hw::hwdb {

struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::Text;
};

/// The column naming the series a Real cell belongs to: a table whose first
/// column is Text keys its Real cells by the row's text there (Metrics by
/// name, Links by mac); otherwise each Real column is one series (-1).
inline int series_column(const std::vector<ColumnDef>& columns) {
  return !columns.empty() && columns[0].type == ColumnType::Text ? 0 : -1;
}

class Schema {
 public:
  /// Picks the series whose Real values time the wall clock, by the series'
  /// text (see series_column): two runs of the same inputs write
  /// different values to them.
  using WallClockSeries = bool (*)(std::string_view series);

  Schema() = default;
  Schema(std::string table_name, std::vector<ColumnDef> columns,
         WallClockSeries wall_clock = nullptr)
      : name_(std::move(table_name)), columns_(std::move(columns)),
        wall_clock_(wall_clock) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<ColumnDef>& columns() const { return columns_; }
  /// Column index by (case-insensitive) name, -1 if absent.
  [[nodiscard]] int column_index(const std::string& column) const;
  [[nodiscard]] std::size_t width() const { return columns_.size(); }
  /// True when `series` holds wall-clock values; a snapshot writes those at
  /// full width, so an image's size never depends on them.
  [[nodiscard]] bool wall_clock(std::string_view series) const {
    return wall_clock_ != nullptr && wall_clock_(series);
  }

 private:
  std::string name_;
  std::vector<ColumnDef> columns_;
  WallClockSeries wall_clock_ = nullptr;
};

/// A table's strings, each stored once and counted by the cells that hold
/// its id. The last release frees the string and its id is reused, so the
/// pool never holds more strings than the live rows reference.
class TextPool {
 public:
  TextPool() = default;
  // Copies would hold iterators into the source's map.
  TextPool(const TextPool&) = delete;
  TextPool& operator=(const TextPool&) = delete;

  /// The id of `s`, stored on first use; takes one reference.
  std::uint32_t acquire(std::string_view s);
  std::uint32_t acquire(std::string&& s);
  /// acquire(s), trying `hint` first: when that id holds `s`, it takes the
  /// reference without a lookup.
  std::uint32_t acquire(std::string_view s, std::uint32_t hint) {
    if (hint < entries_.size() && entries_[hint].refs != 0 &&
        entries_[hint].text == s) {
      ++entries_[hint].refs;
      return hint;
    }
    return acquire(s);
  }
  /// Takes one more reference to a held id.
  void retain(std::uint32_t id) { ++entries_[id].refs; }
  /// Drops one reference; the last one frees the string.
  void release(std::uint32_t id);

  [[nodiscard]] std::string_view text(std::uint32_t id) const {
    return entries_[id].text;
  }
  /// Distinct strings held.
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  /// Every id held is below this.
  [[nodiscard]] std::size_t id_space() const { return entries_.size(); }
  void clear();

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  // Map nodes never move, so entries view their keys.
  using Map = std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>;
  struct Entry {
    std::string_view text;
    std::uint32_t refs = 0;
    Map::iterator it;  // value-initialised while the id is free
  };

  std::uint32_t add(Map::iterator it);

  Map ids_;
  std::vector<Entry> entries_;  // by id
  std::vector<std::uint32_t> free_;
};

class Table;

/// One stored row, read in place: numbers by value, text as views into the
/// table's pool. Valid until the table next changes.
class RecordView {
 public:
  [[nodiscard]] Timestamp ts() const { return cells_[0]; }
  [[nodiscard]] std::size_t width() const;
  /// Column `col`'s raw cell: the number's bits, or a text pool id.
  [[nodiscard]] std::uint64_t cell(std::size_t col) const { return cells_[col + 1]; }
  [[nodiscard]] ValueRef at(std::size_t col) const;

 private:
  friend class Table;
  RecordView(const Table& table, const std::uint64_t* cells)
      : table_(&table), cells_(cells) {}

  const Table* table_;
  const std::uint64_t* cells_;
};

class Table {
 public:
  Table(Schema schema, std::size_t capacity);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Rows overwritten since creation (clients detect data loss in long
  /// windows with it).
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }
  [[nodiscard]] std::uint64_t inserted() const { return inserted_; }
  [[nodiscard]] const TextPool& text_pool() const { return pool_; }

  /// Validates arity and types (Int accepted where Real or Ts is expected,
  /// Real where Int is, with conversion) and appends the row, evicting the
  /// oldest when full.
  Status insert(Timestamp now, std::span<const Value> values);
  Status insert(Timestamp now, std::span<const ValueRef> values);
  Status insert(Timestamp now, std::initializer_list<Value> values) {
    return insert(now, std::span<const Value>(values.begin(), values.size()));
  }

  /// Row `i` counting from the oldest (0) to the newest (size()-1).
  [[nodiscard]] RecordView record(std::size_t i) const {
    assert(i < size_);
    const std::size_t slot = tail_ + i;
    return {*this, &cells_[(slot < cap_ ? slot : slot - cap_) * stride_]};
  }
  [[nodiscard]] RecordView oldest() const { return record(0); }
  [[nodiscard]] RecordView newest() const { return record(size_ - 1); }
  /// Newest insertion timestamp (0 when empty).
  [[nodiscard]] Timestamp newest_ts() const { return empty() ? 0 : newest().ts(); }

  /// Visits rows oldest-first; stops early if `fn` returns false.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (!fn(record(i))) return;
    }
  }

  /// Visits rows newest-first; stops early if `fn` returns false. Windowed
  /// queries scan from the newest end and stop at the window boundary, so
  /// cost is O(window), not O(table).
  template <typename Fn>
  void for_each_newest_first(Fn&& fn) const {
    if (size_ == 0) return;
    const std::uint64_t* const first = cells_.data();
    const std::uint64_t* row = newest().cells_;
    for (std::size_t n = size_;;) {
      if (!fn(RecordView(*this, row)) || --n == 0) return;
      // Below slot 0 lies the last slot, which only a full ring reaches.
      row = row == first ? first + (cap_ - 1) * stride_ : row - stride_;
    }
  }

  /// Drops every row and string; the cell storage is kept for the next fill.
  void clear();

  /// Snapshot restore: `cells` (rows oldest first, each its ts then one cell
  /// per column, a text cell holding an index into `strings`) become the
  /// ring's storage and `strings` the pool's, and the inserted/evicted
  /// lifetime counters the captured table reported are overwritten. Beyond
  /// capacity the oldest rows are dropped. Fails — table untouched — on a
  /// partial row or a string index out of range.
  Status restore(std::vector<std::uint64_t> cells, std::vector<std::string> strings,
                 std::uint64_t inserted, std::uint64_t evicted);

 private:
  friend class RecordView;
  template <typename V>
  Status insert_values(Timestamp now, std::span<const V> values);

  Schema schema_;
  std::vector<ColumnType> types_;  // per column, for reading cells
  std::size_t cap_;                // rows
  std::size_t stride_;             // cells per row: ts + one per column
  // [0, size_) rows in order until full, then cap_ rows; storage grows to
  // the rows held, never past the cap.
  std::vector<std::uint64_t> cells_;
  std::vector<std::uint64_t> scratch_;  // the row being inserted
  // Per column, the text id the last insert wrote: a column that repeats
  // its text (a device, a series kind) skips the pool lookup.
  std::vector<std::uint32_t> last_text_;
  std::size_t head_ = 0;  // next write slot once full
  std::size_t tail_ = 0;  // oldest row
  std::size_t size_ = 0;
  std::uint64_t inserted_ = 0;
  std::uint64_t evicted_ = 0;
  TextPool pool_;
};

inline std::size_t RecordView::width() const { return table_->types_.size(); }

inline ValueRef RecordView::at(std::size_t col) const {
  const std::uint64_t c = cell(col);
  switch (table_->types_[col]) {
    case ColumnType::Int: return ValueRef::of_int(static_cast<std::int64_t>(c));
    case ColumnType::Real: return ValueRef::of_real(std::bit_cast<double>(c));
    case ColumnType::Text:
      return ValueRef::of_text(table_->pool_.text(static_cast<std::uint32_t>(c)));
    case ColumnType::Ts: return ValueRef::of_ts(c);
  }
  return {};
}

}  // namespace hw::hwdb
