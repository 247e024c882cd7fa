#include "hwdb/table.hpp"

#include "util/strings.hpp"

namespace hw::hwdb {

int Schema::column_index(const std::string& column) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (iequals(columns_[i].name, column)) return static_cast<int>(i);
  }
  return -1;
}

Status Table::insert(Timestamp now, std::vector<Value> values) {
  if (values.size() != schema_.width()) {
    return Status::failure("insert into " + schema_.name() + ": expected " +
                           std::to_string(schema_.width()) + " values, got " +
                           std::to_string(values.size()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const ColumnType want = schema_.columns()[i].type;
    const ColumnType got = values[i].type();
    if (want == got) continue;
    // Numeric cross-conversions are accepted; anything else is an error.
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

Status Table::restore_rows(std::vector<Row> rows, std::uint64_t inserted,
                           std::uint64_t evicted) {
  for (const Row& row : rows) {
    if (row.values.size() != schema_.width()) {
      return Status::failure("restore into " + schema_.name() +
                             ": row width mismatch");
    }
  }
  rows_.assign(std::move(rows));
  inserted_ = inserted;
  rows_.restore_evicted(evicted);
  return {};
}

}  // namespace hw::hwdb
