#include "net/tcp.hpp"

namespace hw::net {

void TcpHeader::serialize(ByteWriter& w) const {
  std::uint8_t* p = w.append(kTcpMinHeaderSize);
  store_be16(p, src_port);
  store_be16(p + 2, dst_port);
  store_be32(p + 4, seq);
  store_be32(p + 8, ack);
  store_be16(p + 12, static_cast<std::uint16_t>((5u << 12) | flags));
  store_be16(p + 14, window);
  // p[16..19], the checksum (elided in the simulator) and the urgent
  // pointer, stay zero.
}

}  // namespace hw::net
