#include "net/icmp.hpp"

namespace hw::net {

void IcmpHeader::serialize(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(code);
  w.u16(0);  // checksum elided in the simulator
  w.u16(identifier);
  w.u16(sequence);
}

}  // namespace hw::net
