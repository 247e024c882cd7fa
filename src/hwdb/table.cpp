#include "hwdb/table.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/strings.hpp"

namespace hw::hwdb {

int Schema::column_index(const std::string& column) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (iequals(columns_[i].name, column)) return static_cast<int>(i);
  }
  return -1;
}

std::uint32_t TextPool::acquire(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) {
    ++entries_[it->second].refs;
    return it->second;
  }
  return add(ids_.emplace(std::string(s), 0).first);
}

std::uint32_t TextPool::acquire(std::string&& s) {
  const auto [it, added] = ids_.try_emplace(std::move(s));
  if (!added) {
    ++entries_[it->second].refs;
    return it->second;
  }
  return add(it);
}

std::uint32_t TextPool::add(Map::iterator it) {
  std::uint32_t id = 0;
  if (free_.empty()) {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  } else {
    id = free_.back();
    free_.pop_back();
  }
  it->second = id;
  entries_[id] = Entry{it->first, 1, it};
  return id;
}

void TextPool::release(std::uint32_t id) {
  Entry& e = entries_[id];
  if (--e.refs != 0) return;
  ids_.erase(e.it);
  e = Entry{};
  free_.push_back(id);
}

void TextPool::clear() {
  ids_.clear();
  entries_.clear();
  free_.clear();
}

Table::Table(Schema schema, std::size_t capacity)
    : schema_(std::move(schema)),
      cap_(capacity),
      stride_(schema_.width() + 1),
      scratch_(stride_),
      last_text_(schema_.width(), std::numeric_limits<std::uint32_t>::max()) {
  assert(capacity > 0 && "table needs nonzero capacity");
  types_.reserve(schema_.width());
  for (const ColumnDef& col : schema_.columns()) types_.push_back(col.type);
}

Status Table::insert(Timestamp now, std::span<const Value> values) {
  return insert_values(now, values);
}

Status Table::insert(Timestamp now, std::span<const ValueRef> values) {
  return insert_values(now, values);
}

template <typename V>
Status Table::insert_values(Timestamp now, std::span<const V> values) {
  if (values.size() != types_.size()) {
    return Status::failure("insert into " + schema_.name() + ": expected " +
                           std::to_string(types_.size()) + " values, got " +
                           std::to_string(values.size()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const ColumnType want = types_[i];
    const ColumnType got = values[i].type();
    // Numeric cross-conversions are accepted; anything else is an error.
    if (want == got || (want == ColumnType::Real && got == ColumnType::Int) ||
        (want == ColumnType::Int && got == ColumnType::Real) ||
        (want == ColumnType::Ts && got == ColumnType::Int)) {
      continue;
    }
    return Status::failure("insert into " + schema_.name() + ": column " +
                           schema_.columns()[i].name + " wants " +
                           std::string(to_string(want)) + ", got " +
                           std::string(to_string(got)));
  }

  // The new row takes its strings before the evicted row gives its own
  // back, so a string both rows hold keeps its pool entry.
  scratch_[0] = now;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t& cell = scratch_[i + 1];
    switch (types_[i]) {
      case ColumnType::Int: cell = static_cast<std::uint64_t>(values[i].as_int()); break;
      case ColumnType::Real: cell = std::bit_cast<std::uint64_t>(values[i].as_real()); break;
      case ColumnType::Ts: cell = values[i].as_ts(); break;
      case ColumnType::Text:
        cell = last_text_[i] =
            pool_.acquire(std::string_view(values[i].as_text()), last_text_[i]);
        break;
    }
  }
  if (size_ < cap_) {
    // Not full: the rows sit at [0, size_) in order, so append.
    if (cells_.size() == cells_.capacity()) {
      cells_.reserve(std::min(cap_, std::max<std::size_t>(16, 2 * size_)) * stride_);
    }
    cells_.insert(cells_.end(), scratch_.begin(), scratch_.end());
    ++size_;
    head_ = size_ == cap_ ? 0 : size_;
  } else {
    std::uint64_t* slot = &cells_[head_ * stride_];
    for (std::size_t i = 0; i < types_.size(); ++i) {
      if (types_[i] == ColumnType::Text) {
        pool_.release(static_cast<std::uint32_t>(slot[i + 1]));
      }
    }
    std::copy(scratch_.begin(), scratch_.end(), slot);
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    tail_ = head_;
    ++evicted_;
  }
  ++inserted_;
  return {};
}

void Table::clear() {
  cells_.clear();
  pool_.clear();
  head_ = tail_ = size_ = 0;
}

Status Table::restore(std::vector<std::uint64_t> cells,
                      std::vector<std::string> strings, std::uint64_t inserted,
                      std::uint64_t evicted) {
  if (cells.size() % stride_ != 0) {
    return Status::failure("restore into " + schema_.name() +
                           ": row width mismatch");
  }
  for (std::size_t r = 0; r < cells.size(); r += stride_) {
    for (std::size_t i = 0; i < types_.size(); ++i) {
      if (types_[i] == ColumnType::Text && cells[r + i + 1] >= strings.size()) {
        return Status::failure("restore into " + schema_.name() +
                               ": string id out of range");
      }
    }
  }
  std::size_t rows = cells.size() / stride_;
  if (rows > cap_) {
    cells.erase(cells.begin(),
                cells.begin() + static_cast<std::ptrdiff_t>((rows - cap_) * stride_));
    rows = cap_;
  }
  if (cells.capacity() > cap_ * stride_) cells.shrink_to_fit();

  // Each captured string enters the pool at its first use; a string no
  // kept row uses never does.
  constexpr std::uint32_t kUnused = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> ids(strings.size(), kUnused);
  pool_.clear();
  for (std::size_t r = 0; r < cells.size(); r += stride_) {
    for (std::size_t i = 0; i < types_.size(); ++i) {
      if (types_[i] != ColumnType::Text) continue;
      std::uint64_t& cell = cells[r + i + 1];
      std::uint32_t& id = ids[cell];
      if (id == kUnused) {
        id = pool_.acquire(std::move(strings[cell]));
      } else {
        pool_.retain(id);
      }
      cell = id;
    }
  }
  cells_ = std::move(cells);
  size_ = rows;
  head_ = size_ % cap_;
  tail_ = 0;
  inserted_ = inserted;
  evicted_ = evicted;
  return {};
}

}  // namespace hw::hwdb
