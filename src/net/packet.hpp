// Whole-frame construction and dissection. Frames travel through the system
// as raw bytes (as on a real wire); ParsedPacket is the dissected view used
// by the datapath's flow extraction and by the NOX modules.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "util/bytes.hpp"

namespace hw::net {

/// Classic 5-tuple identifying a flow (the rows of hwdb's Flows table).
struct FiveTuple {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t protocol = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  auto operator<=>(const FiveTuple&) const = default;
  [[nodiscard]] FiveTuple reversed() const {
    return {dst_ip, src_ip, protocol, dst_port, src_port};
  }
  [[nodiscard]] std::string to_string() const;
};

/// Dissected frame: layers are present as far as parsing succeeded.
///
/// Parsing allocates nothing. Header fields are copied out by value, but
/// `l4_payload` is a view into the parsed frame's bytes, so a ParsedPacket
/// is valid only while that frame lives and is not modified: parse, use,
/// drop. Keep the frame (not the ParsedPacket) to look at it later.
struct ParsedPacket {
  EthernetHeader eth;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Header> ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::optional<IcmpHeader> icmp;
  /// L4 payload (UDP data / TCP segment data), view into the parsed frame.
  std::span<const std::uint8_t> l4_payload;
  std::size_t frame_size = 0;

  /// Dissects as deep as the frame allows; the Ethernet layer must parse or
  /// an error is returned. Unknown ethertypes/protocols keep outer layers,
  /// and a present but malformed ARP, IPv4, UDP, TCP or ICMP header is an
  /// error. Each header is read with one bounds check. IPv4 options are
  /// skipped and the IPv4 header checksum is not verified.
  static Result<ParsedPacket> parse(std::span<const std::uint8_t> frame);

  [[nodiscard]] bool is_ipv4() const { return ip.has_value(); }
  [[nodiscard]] std::optional<FiveTuple> five_tuple() const;
  /// True for UDP src/dst port 67/68 BOOTP traffic.
  [[nodiscard]] bool is_dhcp() const;
  /// True for UDP port 53 traffic.
  [[nodiscard]] bool is_dns() const;
};

/// Frame builders used by simulated hosts and by the router's packet-outs.
Bytes build_ethernet(MacAddress src, MacAddress dst, EtherType type,
                     std::span<const std::uint8_t> payload);
Bytes build_arp(const ArpMessage& arp);
Bytes build_udp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, std::uint16_t src_port, std::uint16_t dst_port,
                std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);
Bytes build_tcp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, const TcpHeader& tcp,
                std::span<const std::uint8_t> payload);
Bytes build_icmp_echo(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                      Ipv4Address dst_ip, IcmpType type, std::uint16_t ident,
                      std::uint16_t seq);

/// DHCP frames are UDP broadcasts until the client has an address.
Bytes build_dhcp_frame(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, bool from_client,
                       std::span<const std::uint8_t> dhcp_payload);

}  // namespace hw::net

template <>
struct std::hash<hw::net::FiveTuple> {
  std::size_t operator()(const hw::net::FiveTuple& t) const noexcept {
    std::uint64_t h = t.src_ip.value();
    h = h * 0x100000001b3ull ^ t.dst_ip.value();
    h = h * 0x100000001b3ull ^ t.protocol;
    h = h * 0x100000001b3ull ^ (static_cast<std::uint32_t>(t.src_port) << 16 | t.dst_port);
    return static_cast<std::size_t>(h);
  }
};
