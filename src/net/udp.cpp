#include "net/udp.hpp"

namespace hw::net {

void UdpHeader::serialize(ByteWriter& w, std::size_t payload_len) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(length != 0 ? length
                    : static_cast<std::uint16_t>(kUdpHeaderSize + payload_len));
  w.u16(0);  // checksum optional in IPv4
}

}  // namespace hw::net
