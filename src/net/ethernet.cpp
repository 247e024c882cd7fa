#include "net/ethernet.hpp"

namespace hw::net {

Result<MacAddress> read_mac(ByteReader& r) {
  auto raw = r.view(6);
  if (!raw) return raw.error();
  std::array<std::uint8_t, 6> octets{};
  std::copy(raw.value().begin(), raw.value().end(), octets.begin());
  return MacAddress{octets};
}

void EthernetHeader::serialize(ByteWriter& w) const {
  w.raw(dst.octets().data(), 6);
  w.raw(src.octets().data(), 6);
  w.u16(ethertype);
}

}  // namespace hw::net
