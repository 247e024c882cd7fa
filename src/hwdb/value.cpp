#include "hwdb/value.hpp"

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

std::int64_t Value::as_int() const {
  switch (v_.index()) {
    case 0: return std::get<0>(v_);
    case 1: return static_cast<std::int64_t>(std::get<1>(v_));
    case 3: return static_cast<std::int64_t>(std::get<3>(v_).t);
    default: return 0;
  }
}

double Value::as_real() const {
  switch (v_.index()) {
    case 0: return static_cast<double>(std::get<0>(v_));
    case 1: return std::get<1>(v_);
    case 3: return static_cast<double>(std::get<3>(v_).t);
    default: return 0;
  }
}

const std::string& Value::as_text() const {
  static const std::string empty;
  return v_.index() == 2 ? std::get<2>(v_) : empty;
}

Timestamp Value::as_ts() const {
  switch (v_.index()) {
    case 3: return std::get<3>(v_).t;
    case 0: return static_cast<Timestamp>(std::get<0>(v_));
    case 1: return static_cast<Timestamp>(std::get<1>(v_));
    default: return 0;
  }
}

std::string Value::to_string() const {
  switch (v_.index()) {
    case 0: return std::to_string(std::get<0>(v_));
    case 1: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", std::get<1>(v_));
      return buf;
    }
    case 2: return std::get<2>(v_);
    default: return std::to_string(std::get<3>(v_).t);
  }
}

Result<Value> Value::from_string(ColumnType type, const std::string& text) {
  switch (type) {
    case ColumnType::Int: {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc{} || p != text.data() + text.size()) {
        return make_error("bad int literal: " + text);
      }
      return Value{v};
    }
    case ColumnType::Real: {
      double v = 0;
      auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc{} || p != text.data() + text.size()) {
        return make_error("bad real literal: " + text);
      }
      return Value{v};
    }
    case ColumnType::Text:
      return Value{text};
    case ColumnType::Ts: {
      Timestamp v = 0;
      auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc{} || p != text.data() + text.size()) {
        return make_error("bad timestamp literal: " + text);
      }
      return Value::ts(v);
    }
  }
  return make_error("unknown column type");
}

int Value::compare(const Value& other) const {
  const bool both_numeric = is_numeric() && other.is_numeric();
  if (both_numeric) {
    const double a = as_real();
    const double b = other.as_real();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  // Two texts compare in place; a mixed pair compares renderings.
  const int c = type() == ColumnType::Text && other.type() == ColumnType::Text
                    ? as_text().compare(other.as_text())
                    : to_string().compare(other.to_string());
  return c < 0 ? -1 : (c == 0 ? 0 : 1);
}

}  // namespace hw::hwdb
