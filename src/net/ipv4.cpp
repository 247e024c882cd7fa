#include "net/ipv4.hpp"

#include "net/checksum.hpp"

namespace hw::net {

void Ipv4Header::serialize(ByteWriter& w, std::size_t payload_len) const {
  std::uint8_t* p = w.append(kIpv4MinHeaderSize);
  p[0] = 0x45;  // version 4, IHL 5
  p[1] = dscp;
  store_be16(p + 2, total_length != 0 ? total_length
                                      : static_cast<std::uint16_t>(
                                            kIpv4MinHeaderSize + payload_len));
  store_be16(p + 4, identification);
  store_be16(p + 6, 0x4000);  // DF, no fragmentation in the home LAN model
  p[8] = ttl;
  p[9] = protocol;
  // p[10..11], the checksum, is zero while the sum is taken.
  store_be32(p + 12, src.value());
  store_be32(p + 16, dst.value());
  store_be16(p + 10, internet_checksum({p, kIpv4MinHeaderSize}));
}

}  // namespace hw::net
