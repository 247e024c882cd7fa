// ICMP echo (ping) subset — used for reachability checks in examples/tests.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace hw::net {

/// Type, code, checksum, then the echo identifier and sequence number.
inline constexpr std::size_t kIcmpHeaderSize = 8;

enum class IcmpType : std::uint8_t {
  EchoReply = 0,
  DestinationUnreachable = 3,
  EchoRequest = 8,
};

struct IcmpHeader {
  IcmpType type = IcmpType::EchoRequest;
  std::uint8_t code = 0;
  std::uint16_t identifier = 0;
  std::uint16_t sequence = 0;

  void serialize(ByteWriter& w) const;
};

}  // namespace hw::net
