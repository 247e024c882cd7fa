#include "net/ipv4.hpp"

#include "net/checksum.hpp"

namespace hw::net {

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
