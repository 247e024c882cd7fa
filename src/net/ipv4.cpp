#include "net/ipv4.hpp"

#include "net/checksum.hpp"

namespace hw::net {

Result<Ipv4Header> Ipv4Header::parse(ByteReader& r) {
  const std::size_t header_start = r.position();
  auto ver_ihl = r.u8();
  if (!ver_ihl) return ver_ihl.error();
  const std::uint8_t version = ver_ihl.value() >> 4;
  const std::size_t ihl = (ver_ihl.value() & 0x0f) * 4u;
  if (version != 4) return make_error("IPv4: bad version");
  if (ihl < kIpv4MinHeaderSize) return make_error("IPv4: bad IHL");

  Ipv4Header h;
  auto dscp = r.u8();
  if (!dscp) return dscp.error();
  h.dscp = dscp.value();
  auto total_length = r.u16();
  if (!total_length) return total_length.error();
  h.total_length = total_length.value();
  if (h.total_length < ihl) return make_error("IPv4: total length < header");
  auto ident = r.u16();
  if (!ident) return ident.error();
  h.identification = ident.value();
  auto flags_frag = r.u16();
  if (!flags_frag) return flags_frag.error();
  auto ttl = r.u8();
  if (!ttl) return ttl.error();
  h.ttl = ttl.value();
  auto proto = r.u8();
  if (!proto) return proto.error();
  h.protocol = proto.value();
  auto checksum = r.u16();
  if (!checksum) return checksum.error();
  auto src = r.u32();
  if (!src) return src.error();
  h.src = Ipv4Address{src.value()};
  auto dst = r.u32();
  if (!dst) return dst.error();
  h.dst = Ipv4Address{dst.value()};
  // Skip options.
  if (auto s = r.skip(ihl - kIpv4MinHeaderSize); !s.ok()) return s.error();
  (void)header_start;
  return h;
}

void Ipv4Header::serialize(ByteWriter& w, std::size_t payload_len) const {
  const std::size_t start = w.size();
  w.u8(0x45);  // version 4, IHL 5
  w.u8(dscp);
  const std::uint16_t len =
      total_length != 0
          ? total_length
          : static_cast<std::uint16_t>(kIpv4MinHeaderSize + payload_len);
  w.u16(len);
  w.u16(identification);
  w.u16(0x4000);  // DF, no fragmentation in the home LAN model
  w.u8(ttl);
  w.u8(protocol);
  w.u16(0);  // checksum placeholder
  w.u32(src.value());
  w.u32(dst.value());
  w.patch_u16(start + 10, internet_checksum(std::span(w.bytes()).subspan(
                              start, kIpv4MinHeaderSize)));
}

}  // namespace hw::net
