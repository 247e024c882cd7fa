#include "util/addr.hpp"

#include <charconv>
#include <cstdio>

namespace hw {
namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<MacAddress> MacAddress::parse(std::string_view text) {
  std::array<std::uint8_t, 6> octets{};
  if (text.size() != 17) return make_error("MAC parse: expected aa:bb:cc:dd:ee:ff");
  for (int i = 0; i < 6; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * 3;
    const int hi = hex_digit(text[base]);
    const int lo = hex_digit(text[base + 1]);
    if (hi < 0 || lo < 0) return make_error("MAC parse: bad hex digit");
    if (i < 5 && text[base + 2] != ':') return make_error("MAC parse: expected ':'");
    octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return MacAddress{octets};
}

MacAddress MacAddress::from_index(std::uint32_t index) {
  // 0x02 prefix = locally administered, unicast.
  return MacAddress{{0x02, 0x00,
                     static_cast<std::uint8_t>(index >> 24),
                     static_cast<std::uint8_t>(index >> 16),
                     static_cast<std::uint8_t>(index >> 8),
                     static_cast<std::uint8_t>(index)}};
}

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", octets_[0],
                octets_[1], octets_[2], octets_[3], octets_[4], octets_[5]);
  return buf;
}

Result<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  for (int i = 0; i < 4; ++i) {
    unsigned octet = 0;
    auto [next, ec] = std::from_chars(p, end, octet);
    if (ec != std::errc{} || octet > 255) return make_error("IPv4 parse: bad octet");
    value = (value << 8) | octet;
    p = next;
    if (i < 3) {
      if (p == end || *p != '.') return make_error("IPv4 parse: expected '.'");
      ++p;
    }
  }
  if (p != end) return make_error("IPv4 parse: trailing characters");
  return Ipv4Address{value};
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", value_ >> 24, (value_ >> 16) & 0xff,
                (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

bool Ipv4Address::same_subnet(Ipv4Address other, int prefix_len) const {
  if (prefix_len <= 0) return true;
  if (prefix_len >= 32) return value_ == other.value_;
  const std::uint32_t mask = ~0u << (32 - prefix_len);
  return (value_ & mask) == (other.value_ & mask);
}

std::string Ipv4Subnet::to_string() const {
  return network.to_string() + "/" + std::to_string(prefix_len);
}

}  // namespace hw
