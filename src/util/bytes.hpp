// Big-endian (network order) byte buffer reader/writer used by every wire
// codec in the repository (OpenFlow, DHCP, DNS, hwdb RPC, Ethernet/IP stacks).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

namespace hw {

using Bytes = std::vector<std::uint8_t>;

/// Appends integral fields in network byte order to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Writes into `reuse`'s storage (its contents are discarded): a caller
  /// that encodes message after message moves one buffer in and back out
  /// with take() instead of allocating per message.
  explicit ByteWriter(Bytes&& reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    const std::uint8_t be[2] = {static_cast<std::uint8_t>(v >> 8),
                                static_cast<std::uint8_t>(v)};
    buf_.insert(buf_.end(), be, be + 2);
  }
  void u32(std::uint32_t v) {
    const std::uint8_t be[4] = {
        static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
        static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
    buf_.insert(buf_.end(), be, be + 4);
  }
  void u64(std::uint64_t v) {
    std::uint8_t be[8];
    for (int i = 0; i < 8; ++i) be[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
    buf_.insert(buf_.end(), be, be + 8);
  }
  /// Grows the buffer by `n` zero bytes and returns where they start, so a
  /// fixed header is written in place with store_be16/32. The pointer is
  /// valid until the next write.
  std::uint8_t* append(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }
  void raw(std::span<const std::uint8_t> bytes);
  void raw(const void* data, std::size_t len);
  /// Writes exactly `len` bytes: the string truncated or zero-padded.
  void fixed_string(std::string_view s, std::size_t len);
  void zeros(std::size_t count);

  /// Overwrites a previously written big-endian u16 at `offset` (for length
  /// fields that are only known once the body is complete).
  void patch_u16(std::size_t offset, std::uint16_t v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Releases `buf`'s storage when its capacity has grown past `keep` bytes,
/// so a buffer reused across messages is not pinned at the size of a one-off
/// large one. Call it once the contents are no longer needed.
inline void release_if_oversized(Bytes& buf, std::size_t keep) {
  if (buf.capacity() > keep) Bytes().swap(buf);
}

/// Big-endian loads from bytes the caller has already bounds-checked: a
/// fixed header is length-checked once, then read field by field with these.
inline std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 |
         std::uint32_t{p[2]} << 8 | p[3];
}

/// Big-endian stores into bytes the caller owns: a fixed header is appended
/// once (ByteWriter::append) or patched in place, then written with these.
inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  store_be16(p, static_cast<std::uint16_t>(v >> 16));
  store_be16(p + 2, static_cast<std::uint16_t>(v));
}

/// Reads integral fields in network byte order from a fixed buffer. All reads
/// are bounds-checked; failures surface as Result errors so malformed packets
/// never crash the router.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  /// The bytes not yet read, left unread.
  [[nodiscard]] std::span<const std::uint8_t> rest() const { return data_.subspan(pos_); }

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Copies `len` bytes out.
  Result<Bytes> raw(std::size_t len);
  /// Zero-copy view of `len` bytes.
  Result<std::span<const std::uint8_t>> view(std::size_t len);
  /// Reads `len` bytes and strips trailing NULs (fixed-width name fields).
  Result<std::string> fixed_string(std::size_t len);
  Status skip(std::size_t len);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex dump helper for diagnostics ("0a 1b ..".)
std::string hex_dump(std::span<const std::uint8_t> data, std::size_t max_bytes = 64);

}  // namespace hw
