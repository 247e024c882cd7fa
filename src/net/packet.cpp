#include "net/packet.hpp"

#include "net/dhcp.hpp"

namespace hw::net {

std::string FiveTuple::to_string() const {
  const char* proto_name = protocol == 6 ? "tcp" : protocol == 17 ? "udp"
                           : protocol == 1 ? "icmp" : "ip";
  return src_ip.to_string() + ":" + std::to_string(src_port) + " -> " +
         dst_ip.to_string() + ":" + std::to_string(dst_port) + " (" + proto_name +
         ")";
}

Result<ParsedPacket> ParsedPacket::parse(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  ParsedPacket p;
  p.frame_size = frame.size();

  auto eth = EthernetHeader::parse(r);
  if (!eth) return eth.error();
  p.eth = eth.value();

  switch (p.eth.type()) {
    case EtherType::Arp: {
      auto arp = ArpMessage::parse(r);
      if (!arp) return arp.error();
      p.arp = arp.value();
      return p;
    }
    case EtherType::Ipv4:
      break;
    default:
      return p;  // unknown L3: Ethernet view only
  }

  auto ip = Ipv4Header::parse(r);
  if (!ip) return ip.error();
  p.ip = ip.value();

  switch (p.ip->proto()) {
    case IpProto::Udp: {
      auto udp = UdpHeader::parse(r);
      if (!udp) return udp.error();
      p.udp = udp.value();
      const std::size_t payload_len = p.udp->length > kUdpHeaderSize
                                          ? p.udp->length - kUdpHeaderSize
                                          : 0;
      auto payload = r.view(std::min(payload_len, r.remaining()));
      if (!payload) return payload.error();
      p.l4_payload = payload.value();
      break;
    }
    case IpProto::Tcp: {
      auto tcp = TcpHeader::parse(r);
      if (!tcp) return tcp.error();
      p.tcp = tcp.value();
      auto payload = r.view(r.remaining());
      if (!payload) return payload.error();
      p.l4_payload = payload.value();
      break;
    }
    case IpProto::Icmp: {
      auto icmp = IcmpHeader::parse(r);
      if (!icmp) return icmp.error();
      p.icmp = icmp.value();
      break;
    }
    default:
      break;
  }
  return p;
}

std::optional<FiveTuple> ParsedPacket::five_tuple() const {
  if (!ip) return std::nullopt;
  FiveTuple t;
  t.src_ip = ip->src;
  t.dst_ip = ip->dst;
  t.protocol = ip->protocol;
  if (udp) {
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  } else if (tcp) {
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  }
  return t;
}

bool ParsedPacket::is_dhcp() const {
  return udp && ((udp->src_port == 68 && udp->dst_port == 67) ||
                 (udp->src_port == 67 && udp->dst_port == 68));
}

bool ParsedPacket::is_dns() const {
  return udp && (udp->src_port == 53 || udp->dst_port == 53);
}

Bytes build_ethernet(MacAddress src, MacAddress dst, EtherType type,
                     std::span<const std::uint8_t> payload) {
  ByteWriter w(kEthernetHeaderSize + payload.size());
  EthernetHeader{dst, src, static_cast<std::uint16_t>(type)}.serialize(w);
  w.raw(payload);
  return std::move(w).take();
}

Bytes build_arp(const ArpMessage& arp) {
  ByteWriter body;
  arp.serialize(body);
  const MacAddress dst =
      arp.op == ArpOp::Request ? MacAddress::broadcast() : arp.target_mac;
  return build_ethernet(arp.sender_mac, dst, EtherType::Arp, body.bytes());
}

Bytes build_udp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, std::uint16_t src_port, std::uint16_t dst_port,
                std::span<const std::uint8_t> payload, std::uint8_t ttl) {
  ByteWriter w(kEthernetHeaderSize + kIpv4MinHeaderSize + kUdpHeaderSize +
               payload.size());
  EthernetHeader{dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::Ipv4)}
      .serialize(w);
  Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.ttl = ttl;
  ip.protocol = static_cast<std::uint8_t>(IpProto::Udp);
  ip.serialize(w, kUdpHeaderSize + payload.size());
  UdpHeader{src_port, dst_port, 0}.serialize(w, payload.size());
  w.raw(payload);
  return std::move(w).take();
}

Bytes build_tcp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, const TcpHeader& tcp,
                std::span<const std::uint8_t> payload) {
  ByteWriter w(kEthernetHeaderSize + kIpv4MinHeaderSize + kTcpMinHeaderSize +
               payload.size());
  EthernetHeader{dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::Ipv4)}
      .serialize(w);
  Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::Tcp);
  ip.serialize(w, kTcpMinHeaderSize + payload.size());
  tcp.serialize(w);
  w.raw(payload);
  return std::move(w).take();
}

Bytes build_icmp_echo(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                      Ipv4Address dst_ip, IcmpType type, std::uint16_t ident,
                      std::uint16_t seq) {
  ByteWriter w;
  EthernetHeader{dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::Ipv4)}
      .serialize(w);
  Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::Icmp);
  ip.serialize(w, 8);
  IcmpHeader{type, 0, ident, seq}.serialize(w);
  return std::move(w).take();
}

Bytes build_dhcp_frame(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, bool from_client,
                       std::span<const std::uint8_t> dhcp_payload) {
  const std::uint16_t sport = from_client ? kDhcpClientPort : kDhcpServerPort;
  const std::uint16_t dport = from_client ? kDhcpServerPort : kDhcpClientPort;
  return build_udp(src_mac, dst_mac, src_ip, dst_ip, sport, dport, dhcp_payload);
}

}  // namespace hw::net
