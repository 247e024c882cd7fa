#include "net/arp.hpp"

namespace hw::net {

void ArpMessage::serialize(ByteWriter& w) const {
  w.u16(1);       // Ethernet
  w.u16(0x0800);  // IPv4
  w.u8(6);
  w.u8(4);
  w.u16(static_cast<std::uint16_t>(op));
  w.raw(sender_mac.octets().data(), 6);
  w.u32(sender_ip.value());
  w.raw(target_mac.octets().data(), 6);
  w.u32(target_ip.value());
}

}  // namespace hw::net
