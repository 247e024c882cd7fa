#include "net/icmp.hpp"

namespace hw::net {

void IcmpHeader::serialize(ByteWriter& w) const {
  std::uint8_t* p = w.append(kIcmpHeaderSize);
  p[0] = static_cast<std::uint8_t>(type);
  p[1] = code;
  // p[2..3], the checksum, stays zero: elided in the simulator.
  store_be16(p + 4, identifier);
  store_be16(p + 6, sequence);
}

}  // namespace hw::net
