#include "net/udp.hpp"

namespace hw::net {

void UdpHeader::serialize(ByteWriter& w, std::size_t payload_len) const {
  std::uint8_t* p = w.append(kUdpHeaderSize);
  store_be16(p, src_port);
  store_be16(p + 2, dst_port);
  store_be16(p + 4, length != 0 ? length
                                : static_cast<std::uint16_t>(kUdpHeaderSize +
                                                             payload_len));
  // p[6..7], the checksum, stays zero: it is optional in IPv4.
}

}  // namespace hw::net
