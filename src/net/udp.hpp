// UDP header (RFC 768).
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace hw::net {

inline constexpr std::size_t kUdpHeaderSize = 8;

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload; filled by serialize when 0

  void serialize(ByteWriter& w, std::size_t payload_len) const;
};

}  // namespace hw::net
