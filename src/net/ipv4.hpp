// IPv4 header (RFC 791). Serialization writes no options and computes the
// header checksum. Frames are read by net::ParsedPacket::parse, which skips
// options and does not verify the checksum: like an OpenFlow 1.0 switch, the
// datapath forwards a frame with a bad IPv4 checksum unchanged.
#pragma once

#include <cstdint>

#include "util/addr.hpp"
#include "util/bytes.hpp"

namespace hw::net {

enum class IpProto : std::uint8_t {
  Icmp = 1,
  Tcp = 6,
  Udp = 17,
};

inline constexpr std::size_t kIpv4MinHeaderSize = 20;

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // filled in by serialize when 0
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  Ipv4Address src;
  Ipv4Address dst;

  /// Serializes with computed checksum. `payload_len` sets total_length.
  void serialize(ByteWriter& w, std::size_t payload_len) const;

  [[nodiscard]] IpProto proto() const { return static_cast<IpProto>(protocol); }
};

}  // namespace hw::net
