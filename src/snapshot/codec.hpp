// Chunked-TLV binary snapshot container. A snapshot is a 16-byte header
// (magic 'HWSN', format version, chunk count, payload size, CRC32 of the
// whole payload) followed by chunks: tag (fourcc), length, CRC32 of the
// chunk payload, payload bytes. The whole-payload CRC guarantees any
// single-byte corruption anywhere in the image is rejected — including
// flips inside a chunk *tag*, which per-chunk CRCs alone would silently
// treat as an unknown chunk. Unknown tags are skipped on read, so newer
// writers can add chunks without breaking older readers.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
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
inline constexpr std::uint16_t kFormatVersion = 4;

/// Length-prefixed string helpers shared by every layer codec.
void put_string(ByteWriter& w, std::string_view s);
Result<std::string> get_string(ByteReader& r);

/// Unsigned LEB128 varints: seven bits a byte, least significant group
/// first, at most ten bytes. get_varint refuses a value past 64 bits.
void put_varint(ByteWriter& w, std::uint64_t v);
Result<std::uint64_t> get_varint(ByteReader& r);
/// Decodes the varint at the front of `bytes` into `out` and returns the
/// bytes it took: 0 when `bytes` ends first or the value passes 64 bits.
/// get_varint reads through it; a decoder of many varints (the hwdb column
/// blocks) calls it on its own cursor.
inline std::size_t take_varint(std::span<const std::uint8_t> bytes,
                               std::uint64_t& out) {
  std::uint64_t v = 0;
  const std::size_t n = bytes.size() < 10 ? bytes.size() : 10;
  for (std::size_t i = 0; i < n; ++i) {
    v |= std::uint64_t{bytes[i] & 0x7Fu} << (7 * i);
    if ((bytes[i] & 0x80u) == 0) {
      // The tenth byte holds only bit 63.
      if (i == 9 && bytes[i] > 1) return 0;
      out = v;
      return i + 1;
    }
  }
  return 0;
}

/// Front-coded strings, each written after the one before it in a run (the
/// first after ""): a u8 count of leading bytes shared with the string
/// before, at most kMaxSharedPrefix, then a varint length and the bytes of
/// the rest. Sorted or grouped names (`homework.dhcp.acks`,
/// `homework.dhcp.naks`, ...) store mostly their tails. An entry takes at
/// least two bytes and decodes to at most kMaxSharedPrefix bytes more than
/// it reads, so a decoder's work stays bounded by its input.
inline constexpr std::size_t kMaxSharedPrefix = 255;
void put_front_coded(ByteWriter& w, std::string_view prev, std::string_view s);
Result<std::string> get_front_coded(ByteReader& r, std::string_view prev);

/// Address helpers shared by the DHCP / registry layer codecs.
void put_mac(ByteWriter& w, MacAddress mac);
Result<MacAddress> get_mac(ByteReader& r);
inline void put_ip(ByteWriter& w, Ipv4Address ip) { w.u32(ip.value()); }
Result<Ipv4Address> get_ip(ByteReader& r);

/// One chunk to frame into an image, with the CRC32 of its payload already
/// known (a parsed Reader's or a store's kept copy).
struct FramedChunk {
  std::uint32_t tag = 0;
  std::span<const std::uint8_t> payload;
  std::uint32_t crc = 0;
};

/// The container encoder: header, then every chunk as tag / length / crc /
/// payload, then the body CRC patched in over the finished span — the only
/// pass over the bytes. The chunk CRCs are taken as given; Writer::finish
/// computes its own and calls this.
[[nodiscard]] Bytes encode_image(std::span<const FramedChunk> chunks);

/// Checks an image's container header (magic, version, body size) and its
/// whole-body CRC: one hash pass, no chunk walked or copied. A consumer
/// that parses the image later verifies each chunk then.
Status check_image(std::span<const std::uint8_t> image);

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

  /// One verified chunk: its payload and the CRC32 its header carried (and
  /// parse() checked), so a consumer keying on content need not rehash it.
  struct Chunk {
    std::uint32_t tag = 0;
    Bytes payload;
    std::uint32_t crc = 0;
  };
  /// Every chunk in image order. The encoding is canonical — header fields
  /// are pure functions of the chunk sequence — so framing these chunks
  /// again (encode_image, or a Writer) reproduces the image bit-exactly
  /// (what the residency ImageStore's content-addressed pool relies on).
  [[nodiscard]] const std::vector<Chunk>& chunks() const& { return chunks_; }
  /// Hands every chunk over, payloads moved rather than copied.
  [[nodiscard]] std::vector<Chunk> chunks() && { return std::move(chunks_); }

 private:
  std::vector<Chunk> chunks_;
};

}  // namespace hw::snapshot
