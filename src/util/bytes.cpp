#include "util/bytes.hpp"

#include <algorithm>

namespace hw {

void ByteWriter::raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void ByteWriter::fixed_string(std::string_view s, std::size_t len) {
  const std::size_t copy = std::min(s.size(), len);
  buf_.insert(buf_.end(), s.begin(), s.begin() + static_cast<std::ptrdiff_t>(copy));
  zeros(len - copy);
}

void ByteWriter::zeros(std::size_t count) { buf_.insert(buf_.end(), count, 0); }

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return make_error("short read: u8");
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return make_error("short read: u16");
  const std::uint16_t v = load_be16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return make_error("short read: u32");
  const std::uint32_t v = load_be32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  auto hi = u32();
  if (!hi) return hi.error();
  auto lo = u32();
  if (!lo) return lo.error();
  return (static_cast<std::uint64_t>(hi.value()) << 32) | lo.value();
}

Result<Bytes> ByteReader::raw(std::size_t len) {
  if (remaining() < len) return make_error("short read: raw");
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return out;
}

Result<std::span<const std::uint8_t>> ByteReader::view(std::size_t len) {
  if (remaining() < len) return make_error("short read: view");
  auto out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

Result<std::string> ByteReader::fixed_string(std::size_t len) {
  auto v = view(len);
  if (!v) return v.error();
  auto span = v.value();
  std::size_t end = span.size();
  while (end > 0 && span[end - 1] == 0) --end;
  return std::string(reinterpret_cast<const char*>(span.data()), end);
}

Status ByteReader::skip(std::size_t len) {
  if (remaining() < len) return Status::failure("short read: skip");
  pos_ += len;
  return {};
}

std::string hex_dump(std::span<const std::uint8_t> data, std::size_t max_bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  const std::size_t n = std::min(data.size(), max_bytes);
  out.reserve(n * 3);
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out.push_back(' ');
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  if (n < data.size()) out += " ...";
  return out;
}

}  // namespace hw
