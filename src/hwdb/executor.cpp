#include "hwdb/executor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>

#include "util/strings.hpp"

namespace hw::hwdb {
namespace {

const char* agg_name(AggFn fn) {
  switch (fn) {
    case AggFn::None: return "";
    case AggFn::Count: return "count";
    case AggFn::Sum: return "sum";
    case AggFn::Avg: return "avg";
    case AggFn::Min: return "min";
    case AggFn::Max: return "max";
    case AggFn::Last: return "last";
    case AggFn::Stddev: return "stddev";
  }
  return "";
}

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

/// One candidate row: a driving-table row, joined with a right-table row
/// when the query has a JOIN. Column indexes are combined indexes (left
/// columns then right columns); -2 is the ts pseudo-column.
class RowView {
 public:
  RowView(const Row& left, const Row* right)
      : left_(left), right_(right), ts_(Value::ts(left.ts)) {}

  [[nodiscard]] const Value& at(int idx) const {
    if (idx == -2) return ts_;
    const auto i = static_cast<std::size_t>(idx);
    if (i < left_.values.size()) return left_.values[i];
    return right_->values[i - left_.values.size()];
  }

 private:
  const Row& left_;
  const Row* right_;
  Value ts_;
};

/// A value's rendering. Text is viewed in place; numbers render into
/// `scratch`, and all but the longest integers fit its small-string buffer,
/// so this does not allocate.
std::string_view rendered(const Value& v, std::string& scratch) {
  if (v.type() == ColumnType::Text) return v.as_text();
  scratch = v.to_string();
  return scratch;
}

/// Aggregate state of one aggregate projection within one group. Each
/// function keeps only what it needs.
struct Accumulator {
  AggFn fn = AggFn::None;
  int column = -1;  // combined index; -1 for count(*), -2 for ts
  std::uint64_t count = 0;
  double sum = 0;
  double sum_sq = 0;
  bool integral = true;  // sum of only Int values renders as Int
  Value picked;          // the min, max or last value so far
  bool any = false;

  // Rows are fed newest-first, so the first value seen is the LAST value.
  void feed(const RowView& row) {
    ++count;
    switch (fn) {
      case AggFn::None:
      case AggFn::Count:
        return;
      case AggFn::Sum:
      case AggFn::Avg:
      case AggFn::Stddev: {
        const Value& v = row.at(column);
        if (v.type() != ColumnType::Int) integral = false;
        const double x = v.as_real();
        sum += x;
        sum_sq += x * x;
        return;
      }
      case AggFn::Min: {
        const Value& v = row.at(column);
        if (!any || v.compare(picked) < 0) picked = v;
        break;
      }
      case AggFn::Max: {
        const Value& v = row.at(column);
        if (!any || v.compare(picked) > 0) picked = v;
        break;
      }
      case AggFn::Last:
        if (!any) picked = row.at(column);
        break;
    }
    any = true;
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
      case AggFn::Max:
      case AggFn::Last:
        return any ? picked : Value{};
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

/// A WHERE tree with its columns resolved once per query. An unknown column
/// stays -1 and reports its error only when a row reaches that leaf, so an
/// empty window or a short-circuited branch never reports it.
struct Filter {
  const Predicate* source = nullptr;
  int column = -1;
  std::string needle;  // rendered literal, for CONTAINS
  std::vector<Filter> children;
};

Filter resolve_filter(const Predicate& p, const ColumnSpace& cols) {
  Filter f;
  f.source = &p;
  if (p.kind == Predicate::Kind::Compare) {
    f.column = cols.resolve(p.column);
    if (p.op == CmpOp::Contains) f.needle = p.literal.to_string();
  }
  f.children.reserve(p.children.size());
  for (const auto& c : p.children) f.children.push_back(resolve_filter(*c, cols));
  return f;
}

Result<bool> eval_compare(const Filter& f, const RowView& row) {
  const Predicate& p = *f.source;
  if (f.column == -1) return make_error("unknown column in WHERE: " + p.column);
  const Value& lhs = row.at(f.column);
  switch (p.op) {
    case CmpOp::Eq: return lhs.compare(p.literal) == 0;
    case CmpOp::Ne: return lhs.compare(p.literal) != 0;
    case CmpOp::Lt: return lhs.compare(p.literal) < 0;
    case CmpOp::Le: return lhs.compare(p.literal) <= 0;
    case CmpOp::Gt: return lhs.compare(p.literal) > 0;
    case CmpOp::Ge: return lhs.compare(p.literal) >= 0;
    case CmpOp::Contains: {
      std::string scratch;
      return rendered(lhs, scratch).find(f.needle) != std::string_view::npos;
    }
  }
  return make_error("bad comparison operator");
}

Result<bool> eval(const Filter& f, const RowView& row) {
  switch (f.source->kind) {
    case Predicate::Kind::Compare:
      return eval_compare(f, row);
    case Predicate::Kind::And: {
      for (const auto& c : f.children) {
        auto r = eval(c, row);
        if (!r) return r;
        if (!r.value()) return false;
      }
      return true;
    }
    case Predicate::Kind::Or: {
      for (const auto& c : f.children) {
        auto r = eval(c, row);
        if (!r) return r;
        if (r.value()) return true;
      }
      return false;
    }
    case Predicate::Kind::Not: {
      auto r = eval(f.children[0], row);
      if (!r) return r;
      return !r.value();
    }
  }
  return make_error("bad predicate kind");
}

/// A group key: the GROUP BY values' renderings, compared as a tuple.
/// Rows look their group up by a tuple of views (KeyView), so a hit
/// allocates nothing; only a new group copies its key.
using GroupKey = std::vector<std::string>;
using KeyView = std::span<const std::string_view>;

struct KeyHash {
  using is_transparent = void;
  template <typename Tuple>
  std::size_t operator()(const Tuple& parts) const {
    std::size_t h = 0;
    for (const std::string_view part : parts) {
      h = h * 31 + std::hash<std::string_view>{}(part);
    }
    return h;
  }
};

struct KeyEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](std::string_view x, std::string_view y) { return x == y; });
  }
};

/// The query pipeline over an abstract newest-first row stream.
/// `visit(fn)` must call fn with a RowView for each candidate row
/// newest-first and stop when fn returns false; rows are already
/// window-filtered except for max_rows.
template <typename Visit>
Result<ResultSet> run_pipeline(const SelectQuery& q, const ColumnSpace& cols,
                               std::uint64_t max_rows, Visit&& visit) {
  // Resolve projections: each is a group-key slot or an aggregate.
  struct ResolvedProj {
    AggFn fn = AggFn::None;
    int column = -1;  // combined index; -2 ts pseudo-column; -1 count(*)
    std::string name;
  };
  std::vector<ResolvedProj> projs;
  ResultSet rs;

  if (q.projections.empty()) {
    projs.push_back({AggFn::None, -2, "ts"});
    int idx = 0;
    for (auto& name : cols.all_names()) {
      projs.push_back({AggFn::None, idx++, std::move(name)});
    }
    for (const auto& rp : projs) rs.columns.push_back(rp.name);
  } else {
    for (const auto& p : q.projections) {
      ResolvedProj rp{p.fn, -1, p.column};
      if (p.fn != AggFn::Count || p.column != "*") {
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

  const Filter where =
      q.where != nullptr ? resolve_filter(*q.where, cols) : Filter{};
  std::string error;
  // False when the row fails WHERE or (setting `error`) WHERE fails.
  const auto passes = [&](const RowView& row) {
    if (q.where == nullptr) return true;
    auto keep = eval(where, row);
    if (!keep) {
      error = keep.error().message;
      return false;
    }
    return keep.value();
  };

  if (!q.has_aggregates() && q.group_by.empty()) {
    std::uint64_t taken = 0;
    visit([&](const RowView& row) {
      if (taken >= max_rows) return false;
      if (!passes(row)) return error.empty();
      ++taken;
      std::vector<Value> out;
      out.reserve(projs.size());
      for (const auto& rp : projs) out.push_back(row.at(rp.column));
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

  // Aggregation path. A plain projection shows the group-key value of the
  // GROUP BY column of the same name (Int 0 if none); an aggregate feeds
  // its own accumulator.
  std::vector<int> key_slot(projs.size(), -1);
  std::vector<Accumulator> fresh;  // one empty accumulator per aggregate
  std::vector<int> acc_slot(projs.size(), -1);
  for (std::size_t i = 0; i < projs.size(); ++i) {
    if (projs[i].fn == AggFn::None) {
      for (std::size_t g = 0; g < q.group_by.size(); ++g) {
        if (iequals(q.group_by[g], projs[i].name)) {
          key_slot[i] = static_cast<int>(g);
          break;
        }
      }
    } else {
      acc_slot[i] = static_cast<int>(fresh.size());
      Accumulator& acc = fresh.emplace_back();
      acc.fn = projs[i].fn;
      acc.column = projs[i].column;
    }
  }

  struct Group {
    std::vector<Value> key_values;
    std::vector<Accumulator> accs;
  };
  std::unordered_map<GroupKey, Group, KeyHash, KeyEq> groups;
  std::vector<std::string_view> parts(group_cols.size());
  std::vector<std::string> scratch(group_cols.size());
  std::uint64_t taken = 0;

  visit([&](const RowView& row) {
    if (taken >= max_rows) return false;
    if (!passes(row)) return error.empty();
    ++taken;

    for (std::size_t g = 0; g < group_cols.size(); ++g) {
      parts[g] = rendered(row.at(group_cols[g]), scratch[g]);
    }
    auto it = groups.find(KeyView(parts));
    if (it == groups.end()) {
      Group group;
      group.key_values.reserve(group_cols.size());
      for (const int col : group_cols) group.key_values.push_back(row.at(col));
      group.accs = fresh;
      it = groups.emplace(GroupKey(parts.begin(), parts.end()), std::move(group))
               .first;
    }
    for (auto& acc : it->second.accs) acc.feed(row);
    return true;
  });
  if (!error.empty()) return make_error(error);

  // Groups come out in key order.
  std::vector<const std::pair<const GroupKey, Group>*> ordered;
  ordered.reserve(groups.size());
  for (const auto& entry : groups) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : ordered) {
    if (q.limit > 0 && rs.rows.size() >= q.limit) break;
    const Group& group = entry->second;
    std::vector<Value> out;
    out.reserve(projs.size());
    for (std::size_t i = 0; i < projs.size(); ++i) {
      if (acc_slot[i] >= 0) {
        out.push_back(group.accs[static_cast<std::size_t>(acc_slot[i])].result());
      } else if (key_slot[i] >= 0) {
        out.push_back(group.key_values[static_cast<std::size_t>(key_slot[i])]);
      } else {
        out.push_back(Value{});
      }
    }
    rs.rows.push_back(std::move(out));
  }
  return rs;
}

/// Heterogeneous string hashing, so lookups by view allocate nothing.
struct ViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// As-of index over the right table of a join: per rendered key, row
/// indexes ordered by insertion (oldest → newest).
class AsOfIndex {
 public:
  AsOfIndex(const Table& right, int key_column) : right_(right) {
    std::string scratch;
    std::size_t pos = 0;
    right.rows().for_each([&](const Row& row) {
      // for_each is oldest-first; positions stored in that order.
      const std::string_view key = rendered(
          row.values[static_cast<std::size_t>(key_column)], scratch);
      auto it = keys_.find(key);
      if (it == keys_.end()) it = keys_.emplace(std::string(key), Positions{}).first;
      it->second.push_back(pos++);
      return true;
    });
  }

  /// Newest right row with the given key and ts <= `as_of`, or nullptr.
  [[nodiscard]] const Row* lookup(const Value& key, Timestamp as_of) const {
    std::string scratch;
    auto it = keys_.find(rendered(key, scratch));
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
  using Positions = std::vector<std::size_t>;
  const Table& right_;
  std::unordered_map<std::string, Positions, ViewHash, std::equal_to<>> keys_;
};

}  // namespace

std::string Projection::display_name() const {
  if (fn == AggFn::None) return column;
  return std::string(agg_name(fn)) + "(" + column + ")";
}

int ResultSet::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (iequals(columns[i], name)) return static_cast<int>(i);
  }
  return -1;
}

std::string ResultSet::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out += "\t";
    out += columns[i];
  }
  out += "\n";
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out += "\t";
      out += row[i].to_string();
    }
    out += "\n";
  }
  return out;
}

Result<bool> eval_predicate(const Predicate& p, const Schema& schema,
                            const Row& row) {
  return eval(resolve_filter(p, ColumnSpace(schema, nullptr)),
              RowView(row, nullptr));
}

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
        return fn(RowView(row, nullptr));
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
      const Row* match = index.lookup(
          left_row.values[static_cast<std::size_t>(left_key)], left_row.ts);
      if (match == nullptr) return true;  // inner join: drop unmatched
      return fn(RowView(left_row, match));
    });
  });
}

Result<ResultSet> execute(const SelectQuery& q, const Table& table,
                          Timestamp now) {
  return execute(q, table, nullptr, now);
}

}  // namespace hw::hwdb
