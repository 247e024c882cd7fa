#include "net/arp.hpp"

#include <cstring>

namespace hw::net {

void ArpMessage::serialize(ByteWriter& w) const {
  std::uint8_t* p = w.append(kArpMessageSize);
  store_be16(p, 1);           // Ethernet
  store_be16(p + 2, 0x0800);  // IPv4
  p[4] = 6;
  p[5] = 4;
  store_be16(p + 6, static_cast<std::uint16_t>(op));
  std::memcpy(p + 8, sender_mac.octets().data(), 6);
  store_be32(p + 14, sender_ip.value());
  std::memcpy(p + 18, target_mac.octets().data(), 6);
  store_be32(p + 24, target_ip.value());
}

}  // namespace hw::net
