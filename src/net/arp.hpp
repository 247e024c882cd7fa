// ARP (RFC 826) for Ethernet/IPv4.
#pragma once

#include "util/addr.hpp"
#include "util/bytes.hpp"

namespace hw::net {

/// Ethernet/IPv4 ARP message: htype, ptype, hlen, plen, op, two MAC/IP pairs.
inline constexpr std::size_t kArpMessageSize = 28;

enum class ArpOp : std::uint16_t { Request = 1, Reply = 2 };

struct ArpMessage {
  ArpOp op = ArpOp::Request;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;

  void serialize(ByteWriter& w) const;
};

}  // namespace hw::net
