// TCP header (RFC 793) — header-level model; the simulator generates segment
// streams rather than running a full congestion-controlled stack.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace hw::net {

inline constexpr std::size_t kTcpMinHeaderSize = 20;

struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kPsh = 0x08;
  static constexpr std::uint8_t kAck = 0x10;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;

  void serialize(ByteWriter& w) const;

  [[nodiscard]] bool syn() const { return flags & TcpFlags::kSyn; }
  [[nodiscard]] bool fin() const { return flags & TcpFlags::kFin; }
  [[nodiscard]] bool rst() const { return flags & TcpFlags::kRst; }
  [[nodiscard]] bool ack_set() const { return flags & TcpFlags::kAck; }
};

}  // namespace hw::net
