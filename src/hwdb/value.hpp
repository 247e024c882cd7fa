// Typed values for hwdb rows. The Homework Database stores ephemeral events
// as typed tuples (Sventek et al., IM 2011); we support the four column
// types its standard tables need.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "util/result.hpp"
#include "util/types.hpp"

namespace hw::hwdb {

enum class ColumnType : std::uint8_t {
  Int = 0,   // 64-bit signed
  Real = 1,  // double
  Text = 2,  // UTF-8 string (also used for MAC/IP addresses)
  Ts = 3,    // microsecond timestamp
};

const char* to_string(ColumnType t);

class Value;

/// A value read in place: numbers by value, text as a view into storage
/// that outlives the reference (a table's text pool, a Value, a file
/// buffer). Conversions, rendering and ordering are Value's. Sixteen bytes,
/// so it travels in registers; text is at most 4 GiB.
class ValueRef {
 public:
  ValueRef() = default;  // Int 0
  ValueRef(const Value& v);  // NOLINT: views v's text
  static ValueRef of_int(std::int64_t i) {
    return {ColumnType::Int, static_cast<std::uint64_t>(i)};
  }
  static ValueRef of_real(double d) {
    return {ColumnType::Real, std::bit_cast<std::uint64_t>(d)};
  }
  static ValueRef of_text(std::string_view s) {
    ValueRef r;
    r.type_ = ColumnType::Text;
    r.data_ = s.data();
    r.size_ = static_cast<std::uint32_t>(s.size());
    return r;
  }
  static ValueRef of_ts(Timestamp t) { return {ColumnType::Ts, t}; }

  [[nodiscard]] ColumnType type() const { return type_; }
  [[nodiscard]] bool is_numeric() const { return type_ != ColumnType::Text; }

  [[nodiscard]] std::int64_t as_int() const {
    switch (type_) {
      case ColumnType::Int:
      case ColumnType::Ts: return static_cast<std::int64_t>(bits_);
      case ColumnType::Real: return static_cast<std::int64_t>(std::bit_cast<double>(bits_));
      case ColumnType::Text: break;
    }
    return 0;
  }
  [[nodiscard]] double as_real() const {
    switch (type_) {
      case ColumnType::Int: return static_cast<double>(static_cast<std::int64_t>(bits_));
      case ColumnType::Real: return std::bit_cast<double>(bits_);
      case ColumnType::Ts: return static_cast<double>(bits_);
      case ColumnType::Text: break;
    }
    return 0;
  }
  /// The text; empty for a number.
  [[nodiscard]] std::string_view as_text() const {
    return type_ == ColumnType::Text ? std::string_view(data_, size_)
                                     : std::string_view();
  }
  [[nodiscard]] Timestamp as_ts() const {
    switch (type_) {
      case ColumnType::Int:
      case ColumnType::Ts: return bits_;
      case ColumnType::Real: return static_cast<Timestamp>(std::bit_cast<double>(bits_));
      case ColumnType::Text: break;
    }
    return 0;
  }

  /// Renders for RPC text transport and report output.
  [[nodiscard]] std::string to_string() const;

  /// Parses `text` as the given column type; a text result views `text`.
  static Result<ValueRef> parse(ColumnType type, std::string_view text);

  /// Ordering across numeric values uses numeric comparison; text compares
  /// lexicographically; mixed text/number compares by rendered text.
  [[nodiscard]] int compare(ValueRef other) const;

 private:
  ValueRef(ColumnType type, std::uint64_t bits) : bits_(bits), type_(type) {}

  union {
    std::uint64_t bits_ = 0;  // int64, double or Timestamp bits
    const char* data_;        // text
  };
  std::uint32_t size_ = 0;  // text length
  ColumnType type_ = ColumnType::Int;
};

class Value {
 public:
  Value() : v_(std::int64_t{0}) {}
  Value(std::int64_t i) : v_(i) {}        // NOLINT
  Value(int i) : v_(std::int64_t{i}) {}   // NOLINT
  Value(double d) : v_(d) {}              // NOLINT
  Value(std::string s) : v_(std::move(s)) {}  // NOLINT
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT
  /// An owning copy of `r`.
  explicit Value(ValueRef r) : v_(storage_of(r)) {}
  static Value ts(Timestamp t) {
    Value v;
    v.v_ = TsBox{t};
    return v;
  }

  [[nodiscard]] ColumnType type() const {
    switch (v_.index()) {
      case 0: return ColumnType::Int;
      case 1: return ColumnType::Real;
      case 2: return ColumnType::Text;
      default: return ColumnType::Ts;
    }
  }

  [[nodiscard]] bool is_numeric() const { return type() != ColumnType::Text; }

  [[nodiscard]] std::int64_t as_int() const { return ValueRef(*this).as_int(); }
  [[nodiscard]] double as_real() const { return ValueRef(*this).as_real(); }
  [[nodiscard]] const std::string& as_text() const;
  [[nodiscard]] Timestamp as_ts() const { return ValueRef(*this).as_ts(); }

  /// Renders for RPC text transport and report output.
  [[nodiscard]] std::string to_string() const { return ValueRef(*this).to_string(); }

  /// Parses `text` as the given column type.
  static Result<Value> from_string(ColumnType type, const std::string& text);

  /// Ordering: see ValueRef::compare.
  [[nodiscard]] int compare(const Value& other) const {
    return ValueRef(*this).compare(other);
  }
  bool operator==(const Value& other) const { return compare(other) == 0; }

 private:
  friend class ValueRef;
  struct TsBox {
    Timestamp t;
  };
  using Storage = std::variant<std::int64_t, double, std::string, TsBox>;
  // Each alternative is built in place: emplace on a variant would build a
  // string in a temporary and move it.
  static Storage storage_of(ValueRef r) {
    switch (r.type()) {
      case ColumnType::Int: return Storage(std::in_place_index<0>, r.as_int());
      case ColumnType::Real: return Storage(std::in_place_index<1>, r.as_real());
      case ColumnType::Text: return Storage(std::in_place_index<2>, r.as_text());
      case ColumnType::Ts: break;
    }
    return Storage(std::in_place_index<3>, TsBox{r.as_ts()});
  }
  Storage v_;
};

}  // namespace hw::hwdb
