#include "net/tcp.hpp"

namespace hw::net {

void TcpHeader::serialize(ByteWriter& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u16(static_cast<std::uint16_t>((5u << 12) | flags));
  w.u16(window);
  w.u16(0);  // checksum elided in the simulator
  w.u16(0);  // urgent
}

}  // namespace hw::net
