#include "net/arp.hpp"

#include "net/ethernet.hpp"

namespace hw::net {

Result<ArpMessage> ArpMessage::parse(ByteReader& r) {
  auto htype = r.u16();
  if (!htype) return htype.error();
  auto ptype = r.u16();
  if (!ptype) return ptype.error();
  auto hlen = r.u8();
  if (!hlen) return hlen.error();
  auto plen = r.u8();
  if (!plen) return plen.error();
  if (htype.value() != 1 || ptype.value() != 0x0800 || hlen.value() != 6 ||
      plen.value() != 4) {
    return make_error("ARP: unsupported hardware/protocol type");
  }
  auto op = r.u16();
  if (!op) return op.error();
  if (op.value() != 1 && op.value() != 2) return make_error("ARP: bad opcode");

  ArpMessage m;
  m.op = static_cast<ArpOp>(op.value());
  auto smac = read_mac(r);
  if (!smac) return smac.error();
  m.sender_mac = smac.value();
  auto sip = r.u32();
  if (!sip) return sip.error();
  m.sender_ip = Ipv4Address{sip.value()};
  auto tmac = read_mac(r);
  if (!tmac) return tmac.error();
  m.target_mac = tmac.value();
  auto tip = r.u32();
  if (!tip) return tip.error();
  m.target_ip = Ipv4Address{tip.value()};
  return m;
}

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
