#include "hwdb/value.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace hw::hwdb {

const char* to_string(ColumnType t) {
  switch (t) {
    case ColumnType::Int: return "int";
    case ColumnType::Real: return "real";
    case ColumnType::Text: return "text";
    case ColumnType::Ts: return "ts";
  }
  return "?";
}

ValueRef::ValueRef(const Value& v) {
  switch (v.v_.index()) {
    case 0: *this = of_int(std::get<0>(v.v_)); break;
    case 1: *this = of_real(std::get<1>(v.v_)); break;
    case 2: *this = of_text(std::get<2>(v.v_)); break;
    default: *this = of_ts(std::get<3>(v.v_).t); break;
  }
}

std::string ValueRef::to_string() const {
  switch (type_) {
    case ColumnType::Int: return std::to_string(static_cast<std::int64_t>(bits_));
    case ColumnType::Real: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", std::bit_cast<double>(bits_));
      return buf;
    }
    case ColumnType::Text: return std::string(as_text());
    case ColumnType::Ts: return std::to_string(bits_);
  }
  return {};
}

Result<ValueRef> ValueRef::parse(ColumnType type, std::string_view text) {
  const char* const end = text.data() + text.size();
  switch (type) {
    case ColumnType::Int: {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(text.data(), end, v);
      if (ec != std::errc{} || p != end) {
        return make_error("bad int literal: " + std::string(text));
      }
      return of_int(v);
    }
    case ColumnType::Real: {
      double v = 0;
      auto [p, ec] = std::from_chars(text.data(), end, v);
      if (ec != std::errc{} || p != end) {
        return make_error("bad real literal: " + std::string(text));
      }
      return of_real(v);
    }
    case ColumnType::Text:
      return of_text(text);
    case ColumnType::Ts: {
      Timestamp v = 0;
      auto [p, ec] = std::from_chars(text.data(), end, v);
      if (ec != std::errc{} || p != end) {
        return make_error("bad timestamp literal: " + std::string(text));
      }
      return of_ts(v);
    }
  }
  return make_error("unknown column type");
}

int ValueRef::compare(ValueRef other) const {
  if (is_numeric() && other.is_numeric()) {
    const double a = as_real();
    const double b = other.as_real();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  // Two texts compare in place; a mixed pair compares renderings.
  const int c = type_ == ColumnType::Text && other.type_ == ColumnType::Text
                    ? as_text().compare(other.as_text())
                    : to_string().compare(other.to_string());
  return c < 0 ? -1 : (c == 0 ? 0 : 1);
}

const std::string& Value::as_text() const {
  static const std::string empty;
  return v_.index() == 2 ? std::get<2>(v_) : empty;
}

Result<Value> Value::from_string(ColumnType type, const std::string& text) {
  auto v = ValueRef::parse(type, text);
  if (!v) return v.error();
  return Value(v.value());
}

}  // namespace hw::hwdb
