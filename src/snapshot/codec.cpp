#include "snapshot/codec.hpp"

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
  constexpr std::size_t kHeaderSize = 16;
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

Result<Reader> Reader::parse(std::span<const std::uint8_t> image) {
  ByteReader r(image);
  auto magic = r.u32();
  if (!magic || magic.value() != kMagic) {
    return make_error("snapshot: bad magic");
  }
  auto version = r.u16();
  if (!version || version.value() != kFormatVersion) {
    return make_error("snapshot: unsupported format version");
  }
  auto chunk_count = r.u16();
  auto payload_size = r.u32();
  auto payload_crc = r.u32();
  if (!chunk_count || !payload_size || !payload_crc) {
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

  Reader out;
  ByteReader chunks(body.value());
  for (std::uint16_t i = 0; i < chunk_count.value(); ++i) {
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

void Reader::for_each_chunk(
    const std::function<void(std::uint32_t, const Bytes&)>& fn) const {
  for (const Chunk& c : chunks_) fn(c.tag, c.payload);
}

}  // namespace hw::snapshot
