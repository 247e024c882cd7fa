// Query execution over hwdb tables.
#pragma once

#include "hwdb/query.hpp"
#include "hwdb/table.hpp"

namespace hw::hwdb {

/// Executes `q` against `table` with `now` as the window reference point.
/// The scan walks newest-first and stops at the window boundary, so cost is
/// proportional to the window, not the buffer.
Result<ResultSet> execute(const SelectQuery& q, const Table& table, Timestamp now);

/// Join-capable overload: `right` is the joined table (may be null when the
/// query has no JOIN clause). Join semantics are temporal "as-of": each
/// driving row pairs with the newest right row of equal key not newer than
/// itself; unmatched rows are dropped.
Result<ResultSet> execute(const SelectQuery& q, const Table& table,
                          const Table* right, Timestamp now);

}  // namespace hw::hwdb
