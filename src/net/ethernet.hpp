// Ethernet II framing.
#pragma once

#include <cstdint>
#include <span>

#include "util/addr.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace hw::net {

enum class EtherType : std::uint16_t {
  Ipv4 = 0x0800,
  Arp = 0x0806,
  Vlan = 0x8100,
  Ipv6 = 0x86dd,
};

inline constexpr std::size_t kEthernetHeaderSize = 14;
inline constexpr std::size_t kMaxFrameSize = 1518;

/// Reads a 6-byte MAC address through a view, copying the wire bytes only
/// into the returned value. The OpenFlow codecs (matches, actions, port
/// descriptions) read their MACs through it.
Result<MacAddress> read_mac(ByteReader& r);

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ethertype = 0;

  void serialize(ByteWriter& w) const;

  [[nodiscard]] EtherType type() const { return static_cast<EtherType>(ethertype); }
};

}  // namespace hw::net
