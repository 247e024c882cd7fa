// Chunked-TLV binary snapshot container. A snapshot is a 20-byte header
// (magic 'HWSN', format version, chunk count, payload size, CRC32 of the
// whole payload) followed by chunks: tag (fourcc), length, CRC32 of the
// chunk payload, payload bytes. The whole-payload CRC guarantees any
// single-byte corruption anywhere in the image is rejected — including
// flips inside a chunk *tag*, which per-chunk CRCs alone would silently
// treat as an unknown chunk. Unknown tags are skipped on read, so newer
// writers can add chunks without breaking older readers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/addr.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace hw::snapshot {

/// IEEE 802.3 CRC32 (reflected, poly 0xEDB88320), the tcpdump/zip flavour.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Chunk tag from a 4-character mnemonic, e.g. tag("FTBL").
constexpr std::uint32_t tag(const char (&s)[5]) {
  return (static_cast<std::uint32_t>(s[0]) << 24) |
         (static_cast<std::uint32_t>(s[1]) << 16) |
         (static_cast<std::uint32_t>(s[2]) << 8) |
         static_cast<std::uint32_t>(s[3]);
}

inline constexpr std::uint32_t kMagic = tag("HWSN");
inline constexpr std::uint16_t kFormatVersion = 2;

/// Length-prefixed string helpers shared by every layer codec.
void put_string(ByteWriter& w, std::string_view s);
Result<std::string> get_string(ByteReader& r);

/// Address helpers shared by the DHCP / registry layer codecs.
void put_mac(ByteWriter& w, MacAddress mac);
Result<MacAddress> get_mac(ByteReader& r);
inline void put_ip(ByteWriter& w, Ipv4Address ip) { w.u32(ip.value()); }
Result<Ipv4Address> get_ip(ByteReader& r);

/// Builds a snapshot image chunk by chunk. Usage:
///   Writer w;
///   ByteWriter& c = w.begin_chunk(tag("FTBL"));
///   c.u64(...);             // chunk payload
///   w.end_chunk();
///   Bytes image = std::move(w).finish();
class Writer {
 public:
  /// Starts a chunk; returns the writer the caller serializes into. Chunks
  /// may not nest.
  ByteWriter& begin_chunk(std::uint32_t chunk_tag);
  void end_chunk();

  /// Seals the image: header + all chunks. The Writer is spent afterwards.
  [[nodiscard]] Bytes finish() &&;

 private:
  struct Chunk {
    std::uint32_t tag = 0;
    Bytes payload;
  };
  std::vector<Chunk> chunks_;
  ByteWriter current_;
  std::uint32_t current_tag_ = 0;
  bool in_chunk_ = false;
};

/// Parsed, fully validated snapshot image. parse() checks the magic, the
/// version (strictly == kFormatVersion), every length field, the whole-
/// payload CRC and every per-chunk CRC up front; a Reader therefore only
/// ever hands out verified bytes.
class Reader {
 public:
  static Result<Reader> parse(std::span<const std::uint8_t> image);

  /// Chunk payload by tag; nullptr when absent (forward compat: callers
  /// treat a missing optional chunk as "nothing to restore").
  [[nodiscard]] const Bytes* find(std::uint32_t chunk_tag) const;
  /// All chunks bearing `chunk_tag`, in image order (hwdb emits one HTBL
  /// chunk per table).
  [[nodiscard]] std::vector<const Bytes*> find_all(
      std::uint32_t chunk_tag) const;
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  /// Visits every chunk in image order. The encoding is canonical — header
  /// fields are pure functions of the chunk sequence — so re-emitting the
  /// visited chunks through a Writer reproduces the image bit-exactly
  /// (what the residency ImageStore's content-addressed pool relies on).
  void for_each_chunk(
      const std::function<void(std::uint32_t, const Bytes&)>& fn) const;

 private:
  struct Chunk {
    std::uint32_t tag = 0;
    Bytes payload;
  };
  std::vector<Chunk> chunks_;
};

}  // namespace hw::snapshot
