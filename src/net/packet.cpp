#include "net/packet.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "net/dhcp.hpp"

namespace hw::net {

std::string FiveTuple::to_string() const {
  const char* proto_name = protocol == 6 ? "tcp" : protocol == 17 ? "udp"
                           : protocol == 1 ? "icmp" : "ip";
  return src_ip.to_string() + ":" + std::to_string(src_port) + " -> " +
         dst_ip.to_string() + ":" + std::to_string(dst_port) + " (" + proto_name +
         ")";
}

namespace {

MacAddress mac_at(const std::uint8_t* p) {
  std::array<std::uint8_t, 6> octets;
  std::memcpy(octets.data(), p, octets.size());
  return MacAddress{octets};
}

/// Fills `p` layer by layer from `frame`. Each header is length-checked once
/// against the bytes left after the outer ones, then its fields are loaded
/// straight into the packet. Returns nullptr, or what made the frame invalid.
const char* dissect(std::span<const std::uint8_t> frame, ParsedPacket& p) {
  p.frame_size = frame.size();
  const std::uint8_t* b = frame.data();
  std::size_t left = frame.size();

  if (left < kEthernetHeaderSize) return "Ethernet: short frame";
  p.eth.dst = mac_at(b);
  p.eth.src = mac_at(b + 6);
  p.eth.ethertype = load_be16(b + 12);
  b += kEthernetHeaderSize;
  left -= kEthernetHeaderSize;

  switch (p.eth.type()) {
    case EtherType::Arp: {
      if (left < kArpMessageSize) return "ARP: short message";
      if (load_be16(b) != 1 || load_be16(b + 2) != 0x0800 || b[4] != 6 ||
          b[5] != 4) {
        return "ARP: unsupported hardware/protocol type";
      }
      const std::uint16_t op = load_be16(b + 6);
      if (op != 1 && op != 2) return "ARP: bad opcode";
      ArpMessage& arp = p.arp.emplace();
      arp.op = static_cast<ArpOp>(op);
      arp.sender_mac = mac_at(b + 8);
      arp.sender_ip = Ipv4Address{load_be32(b + 14)};
      arp.target_mac = mac_at(b + 18);
      arp.target_ip = Ipv4Address{load_be32(b + 24)};
      return nullptr;
    }
    case EtherType::Ipv4:
      break;
    default:
      return nullptr;  // unknown L3: Ethernet view only
  }

  // IPv4: options are skipped and the header checksum is not verified.
  if (left < kIpv4MinHeaderSize) return "IPv4: short header";
  if (b[0] >> 4 != 4) return "IPv4: bad version";
  const std::size_t ihl = (b[0] & 0x0fu) * 4u;
  if (ihl < kIpv4MinHeaderSize) return "IPv4: bad IHL";
  if (left < ihl) return "IPv4: short options";
  Ipv4Header& ip = p.ip.emplace();
  ip.total_length = load_be16(b + 2);
  if (ip.total_length < ihl) return "IPv4: total length < header";
  ip.dscp = b[1];
  ip.identification = load_be16(b + 4);
  ip.ttl = b[8];
  ip.protocol = b[9];
  ip.src = Ipv4Address{load_be32(b + 12)};
  ip.dst = Ipv4Address{load_be32(b + 16)};
  b += ihl;
  left -= ihl;

  switch (ip.proto()) {
    case IpProto::Udp: {
      if (left < kUdpHeaderSize) return "UDP: short header";
      UdpHeader& udp = p.udp.emplace();
      udp.length = load_be16(b + 4);
      if (udp.length < kUdpHeaderSize) return "UDP: bad length";
      udp.src_port = load_be16(b);
      udp.dst_port = load_be16(b + 2);
      // The checksum is not read (0 is allowed in IPv4). The payload ends at
      // the UDP length or at the frame's end, whichever comes first.
      p.l4_payload = {b + kUdpHeaderSize,
                      std::min<std::size_t>(udp.length - kUdpHeaderSize,
                                            left - kUdpHeaderSize)};
      break;
    }
    case IpProto::Tcp: {
      if (left < kTcpMinHeaderSize) return "TCP: short header";
      const std::uint16_t offset_flags = load_be16(b + 12);
      const std::size_t data_offset = (offset_flags >> 12) * 4u;
      if (data_offset < kTcpMinHeaderSize) return "TCP: bad data offset";
      if (left < data_offset) return "TCP: short options";
      TcpHeader& tcp = p.tcp.emplace();
      tcp.src_port = load_be16(b);
      tcp.dst_port = load_be16(b + 2);
      tcp.seq = load_be32(b + 4);
      tcp.ack = load_be32(b + 8);
      tcp.flags = static_cast<std::uint8_t>(offset_flags & 0x3f);
      tcp.window = load_be16(b + 14);
      p.l4_payload = {b + data_offset, left - data_offset};
      break;
    }
    case IpProto::Icmp: {
      if (left < kIcmpHeaderSize) return "ICMP: short header";
      IcmpHeader& icmp = p.icmp.emplace();
      icmp.type = static_cast<IcmpType>(b[0]);
      icmp.code = b[1];
      icmp.identifier = load_be16(b + 4);
      icmp.sequence = load_be16(b + 6);
      break;
    }
    default:
      break;
  }
  return nullptr;
}

}  // namespace

Result<ParsedPacket> ParsedPacket::parse(std::span<const std::uint8_t> frame) {
  // One Result, filled in place and returned by name (no copy of the packet).
  // It starts as a copy of a constant empty packet: GCC value-initializes a
  // ParsedPacket with `rep stos`, which costs a third of the parse.
  static constexpr ParsedPacket kEmpty{};
  Result<ParsedPacket> out{kEmpty};
  if (const char* invalid = dissect(frame, out.value())) out = make_error(invalid);
  return out;
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
  ByteWriter w(kEthernetHeaderSize + kArpMessageSize);
  const MacAddress dst =
      arp.op == ArpOp::Request ? MacAddress::broadcast() : arp.target_mac;
  EthernetHeader{dst, arp.sender_mac, static_cast<std::uint16_t>(EtherType::Arp)}
      .serialize(w);
  arp.serialize(w);
  return std::move(w).take();
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
  ByteWriter w(kEthernetHeaderSize + kIpv4MinHeaderSize + kIcmpHeaderSize);
  EthernetHeader{dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::Ipv4)}
      .serialize(w);
  Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.protocol = static_cast<std::uint8_t>(IpProto::Icmp);
  ip.serialize(w, kIcmpHeaderSize);
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
