#include "net/ethernet.hpp"

namespace hw::net {

Result<MacAddress> read_mac(ByteReader& r) {
  auto raw = r.view(6);
  if (!raw) return raw.error();
  std::array<std::uint8_t, 6> octets{};
  std::copy(raw.value().begin(), raw.value().end(), octets.begin());
  return MacAddress{octets};
}

Result<EthernetHeader> EthernetHeader::parse(ByteReader& r) {
  auto dst = r.view(6);
  if (!dst) return dst.error();
  auto src = r.view(6);
  if (!src) return src.error();
  auto ethertype = r.u16();
  if (!ethertype) return ethertype.error();

  EthernetHeader h;
  std::array<std::uint8_t, 6> octets{};
  std::copy(dst.value().begin(), dst.value().end(), octets.begin());
  h.dst = MacAddress{octets};
  std::copy(src.value().begin(), src.value().end(), octets.begin());
  h.src = MacAddress{octets};
  h.ethertype = ethertype.value();
  return h;
}

void EthernetHeader::serialize(ByteWriter& w) const {
  w.raw(dst.octets().data(), 6);
  w.raw(src.octets().data(), 6);
  w.u16(ethertype);
}

}  // namespace hw::net
