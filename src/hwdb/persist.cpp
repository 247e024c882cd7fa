#include "hwdb/persist.hpp"

#include <algorithm>
#include <span>
#include <string_view>

#include "util/logging.hpp"

namespace hw::hwdb {

Result<std::size_t> dump_table_tsv(const Table& table, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return make_error("cannot open " + path);
  std::fprintf(f, "#ts");
  for (const auto& col : table.schema().columns()) {
    std::fprintf(f, "\t%s:%s", col.name.c_str(), to_string(col.type));
  }
  std::fputc('\n', f);
  table.for_each([&](const RecordView& row) {
    std::fprintf(f, "%llu", static_cast<unsigned long long>(row.ts()));
    for (std::size_t col = 0; col < row.width(); ++col) {
      const ValueRef v = row.at(col);
      if (v.type() == ColumnType::Text) {
        std::fprintf(f, "\t%.*s", static_cast<int>(v.as_text().size()),
                     v.as_text().data());
      } else {
        std::fprintf(f, "\t%s", v.to_string().c_str());
      }
    }
    std::fputc('\n', f);
    return true;
  });
  std::fclose(f);
  return table.size();
}

Result<std::size_t> load_table_tsv(Table& table, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return make_error("cannot open " + path);
  std::string text;
  char buf[4096];
  for (std::size_t n = 0; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);

  // Two-phase load: parse and validate the whole file into staged values
  // (text viewing the file) first, insert only once everything checked out.
  // A malformed file — truncated mid-line, wrong column count, timestamps
  // running backwards — therefore never partially mutates the table.
  const auto& columns = table.schema().columns();
  std::vector<Timestamp> stamps;
  std::vector<ValueRef> staged;  // columns.size() per row
  int lineno = 0;
  const auto fail = [&](const std::string& what) {
    return make_error(path + ":" + std::to_string(lineno) + ": " + what);
  };
  for (std::string_view rest = text; !rest.empty();) {
    const std::size_t eol = rest.find('\n');
    // dump_table_tsv terminates every line, header included. Data with no
    // final newline is a torn write, not a last line.
    if (eol == std::string_view::npos) {
      return fail("truncated file (no trailing newline)");
    }
    // Only the line ending goes: a tab at either end separates an empty
    // text field.
    std::string_view line = rest.substr(0, eol);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    rest.remove_prefix(eol + 1);
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto fields =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), '\t')) + 1;
    if (fields != columns.size() + 1) {
      return fail("expected " + std::to_string(columns.size() + 1) +
                  " fields, got " + std::to_string(fields));
    }
    std::size_t start = 0;
    const auto next_field = [&] {
      const std::size_t tab = std::min(line.find('\t', start), line.size());
      const std::string_view field = line.substr(start, tab - start);
      start = tab + 1;
      return field;
    };
    auto ts = ValueRef::parse(ColumnType::Ts, next_field());
    if (!ts) return fail("bad ts");
    if (!stamps.empty() && ts.value().as_ts() < stamps.back()) {
      return fail("non-monotonic timestamp");
    }
    stamps.push_back(ts.value().as_ts());
    for (const ColumnDef& col : columns) {
      auto v = ValueRef::parse(col.type, next_field());
      if (!v) return fail(v.error().message);
      staged.push_back(v.value());
    }
  }

  const std::span<const ValueRef> values(staged);
  for (std::size_t r = 0; r < stamps.size(); ++r) {
    if (auto s = table.insert(stamps[r],
                              values.subspan(r * columns.size(), columns.size()));
        !s.ok()) {
      return s.error();
    }
  }
  return stamps.size();
}

PersistSink::PersistSink(Database& db, std::string query_text,
                         SubscriptionMode mode, Duration period,
                         const std::string& path)
    : db_(db) {
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    HW_LOG_ERROR("hwdb-persist", "cannot open %s", path.c_str());
    return;
  }
  auto sub = db_.subscribe(
      query_text, mode, period, [this](SubscriptionId, const ResultSet& rs) {
        if (file_ == nullptr) return;
        std::fprintf(file_, "# batch t=%llu rows=%zu\n",
                     static_cast<unsigned long long>(db_.loop().now()),
                     rs.rows.size());
        for (const auto& row : rs.rows) {
          for (std::size_t i = 0; i < row.size(); ++i) {
            std::fprintf(file_, "%s%s", i ? "\t" : "", row[i].to_string().c_str());
          }
          std::fputc('\n', file_);
          ++rows_;
        }
        ++batches_;
      });
  if (sub) sub_id_ = sub.value();
}

PersistSink::~PersistSink() {
  if (sub_id_ != 0) db_.unsubscribe(sub_id_);
  if (file_ != nullptr) std::fclose(file_);
}

void PersistSink::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

}  // namespace hw::hwdb
