#include "net/ethernet.hpp"

#include <cstring>

namespace hw::net {

Result<MacAddress> read_mac(ByteReader& r) {
  auto raw = r.view(6);
  if (!raw) return raw.error();
  std::array<std::uint8_t, 6> octets{};
  std::copy(raw.value().begin(), raw.value().end(), octets.begin());
  return MacAddress{octets};
}

void EthernetHeader::serialize(ByteWriter& w) const {
  std::uint8_t* p = w.append(kEthernetHeaderSize);
  std::memcpy(p, dst.octets().data(), 6);
  std::memcpy(p + 6, src.octets().data(), 6);
  store_be16(p + 12, ethertype);
}

}  // namespace hw::net
