#include "snapshot/codec.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace hw::snapshot {
namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise IEEE table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// bytes fold into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// magic 4 + version 2 + chunk count 2 + body size 4 + body CRC 4.
constexpr std::size_t kHeaderSize = 16;

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrcTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

void put_string(ByteWriter& w, std::string_view s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.raw(s.data(), s.size());
}

Result<std::string> get_string(ByteReader& r) {
  auto len = r.u32();
  if (!len) return len.error();
  auto bytes = r.raw(len.value());
  if (!bytes) return bytes.error();
  return std::string(bytes.value().begin(), bytes.value().end());
}

void put_varint(ByteWriter& w, std::uint64_t v) {
  std::uint8_t buf[10];
  std::size_t n = 0;
  for (; v >= 0x80; v >>= 7) buf[n++] = static_cast<std::uint8_t>(v | 0x80);
  buf[n++] = static_cast<std::uint8_t>(v);
  w.raw(buf, n);
}

Result<std::uint64_t> get_varint(ByteReader& r) {
  std::uint64_t v = 0;
  const std::size_t n = take_varint(r.rest(), v);
  if (n == 0) return make_error("snapshot: varint cut short or past 64 bits");
  (void)r.skip(n);
  return v;
}

void put_front_coded(ByteWriter& w, std::string_view prev, std::string_view s) {
  const std::size_t limit =
      std::min({prev.size(), s.size(), std::size_t{kMaxSharedPrefix}});
  std::size_t shared = 0;
  while (shared < limit && prev[shared] == s[shared]) ++shared;
  w.u8(static_cast<std::uint8_t>(shared));
  put_varint(w, s.size() - shared);
  w.raw(s.data() + shared, s.size() - shared);
}

Result<std::string> get_front_coded(ByteReader& r, std::string_view prev) {
  auto shared = r.u8();
  if (!shared) return shared.error();
  if (shared.value() > prev.size()) {
    return make_error("snapshot: shared prefix longer than the string before");
  }
  auto rest_size = get_varint(r);
  if (!rest_size) return rest_size.error();
  if (rest_size.value() > r.remaining()) {
    return make_error("snapshot: string past chunk end");
  }
  auto rest = r.view(static_cast<std::size_t>(rest_size.value()));
  if (!rest) return rest.error();
  std::string s;
  s.reserve(shared.value() + rest.value().size());
  s.append(prev.substr(0, shared.value()));
  s.append(rest.value().begin(), rest.value().end());
  return s;
}

void put_mac(ByteWriter& w, MacAddress mac) { w.raw(mac.octets()); }

Result<MacAddress> get_mac(ByteReader& r) {
  auto raw = r.view(6);
  if (!raw) return raw.error();
  std::array<std::uint8_t, 6> octets{};
  std::memcpy(octets.data(), raw.value().data(), 6);
  return MacAddress{octets};
}

Result<Ipv4Address> get_ip(ByteReader& r) {
  auto v = r.u32();
  if (!v) return v.error();
  return Ipv4Address{v.value()};
}

ByteWriter& Writer::begin_chunk(std::uint32_t chunk_tag) {
  assert(!in_chunk_ && "snapshot chunks may not nest");
  in_chunk_ = true;
  current_tag_ = chunk_tag;
  current_ = ByteWriter{};
  return current_;
}

void Writer::end_chunk() {
  assert(in_chunk_ && "end_chunk without begin_chunk");
  in_chunk_ = false;
  chunks_.push_back(Chunk{current_tag_, std::move(current_).take()});
}

Bytes encode_image(std::span<const FramedChunk> chunks) {
  std::size_t body_size = 0;
  for (const FramedChunk& c : chunks) body_size += 12 + c.payload.size();

  // Header (magic / version / chunk count / body size / body CRC), then
  // every chunk framed as tag / length / crc / bytes straight into the
  // image; the body CRC is patched in over the finished span.
  ByteWriter image(kHeaderSize + body_size);
  image.u32(kMagic);
  image.u16(kFormatVersion);
  image.u16(static_cast<std::uint16_t>(chunks.size()));
  image.u32(static_cast<std::uint32_t>(body_size));
  image.u32(0);  // body CRC, patched below
  for (const FramedChunk& c : chunks) {
    image.u32(c.tag);
    image.u32(static_cast<std::uint32_t>(c.payload.size()));
    image.u32(c.crc);
    image.raw(c.payload);
  }
  Bytes out = std::move(image).take();
  store_be32(out.data() + kHeaderSize - 4,
             crc32(std::span<const std::uint8_t>(out).subspan(kHeaderSize)));
  return out;
}

Bytes Writer::finish() && {
  assert(!in_chunk_ && "finish with an open chunk");
  std::vector<FramedChunk> framed;
  framed.reserve(chunks_.size());
  for (const Chunk& c : chunks_) {
    framed.push_back(FramedChunk{c.tag, c.payload, crc32(c.payload)});
  }
  return encode_image(framed);
}

namespace {

/// The image's body once its header and body CRC check out.
Result<std::span<const std::uint8_t>> checked_body(
    std::span<const std::uint8_t> image, std::uint16_t& chunk_count) {
  ByteReader r(image);
  auto magic = r.u32();
  if (!magic || magic.value() != kMagic) {
    return make_error("snapshot: bad magic");
  }
  auto version = r.u16();
  if (!version || version.value() != kFormatVersion) {
    return make_error("snapshot: unsupported format version");
  }
  auto count = r.u16();
  auto payload_size = r.u32();
  auto payload_crc = r.u32();
  if (!count || !payload_size || !payload_crc) {
    return make_error("snapshot: truncated header");
  }
  if (payload_size.value() != r.remaining()) {
    return make_error("snapshot: payload size mismatch");
  }
  auto body = r.view(payload_size.value());
  if (!body) return make_error("snapshot: truncated payload");
  if (crc32(body.value()) != payload_crc.value()) {
    return make_error("snapshot: payload checksum mismatch");
  }
  chunk_count = count.value();
  return body.value();
}

}  // namespace

Status check_image(std::span<const std::uint8_t> image) {
  std::uint16_t chunk_count = 0;
  auto body = checked_body(image, chunk_count);
  if (!body) return body.error();
  return Status::success();
}

Result<Reader> Reader::parse(std::span<const std::uint8_t> image) {
  std::uint16_t chunk_count = 0;
  auto body = checked_body(image, chunk_count);
  if (!body) return body.error();

  Reader out;
  ByteReader chunks(body.value());
  for (std::uint16_t i = 0; i < chunk_count; ++i) {
    auto chunk_tag = chunks.u32();
    auto len = chunks.u32();
    auto crc = chunks.u32();
    if (!chunk_tag || !len || !crc) {
      return make_error("snapshot: truncated chunk header");
    }
    auto chunk_payload = chunks.raw(len.value());
    if (!chunk_payload) return make_error("snapshot: truncated chunk payload");
    if (crc32(chunk_payload.value()) != crc.value()) {
      return make_error("snapshot: chunk checksum mismatch");
    }
    out.chunks_.push_back(Chunk{chunk_tag.value(),
                                std::move(chunk_payload).take(), crc.value()});
  }
  if (!chunks.empty()) {
    return make_error("snapshot: trailing bytes after last chunk");
  }
  return out;
}

const Bytes* Reader::find(std::uint32_t chunk_tag) const {
  for (const Chunk& c : chunks_) {
    if (c.tag == chunk_tag) return &c.payload;
  }
  return nullptr;
}

std::vector<const Bytes*> Reader::find_all(std::uint32_t chunk_tag) const {
  std::vector<const Bytes*> out;
  for (const Chunk& c : chunks_) {
    if (c.tag == chunk_tag) out.push_back(&c.payload);
  }
  return out;
}

}  // namespace hw::snapshot
