#include "util/addr.hpp"

#include <array>
#include <charconv>

namespace hw {
namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

constexpr char kHexDigits[] = "0123456789abcdef";

/// Decimal text of every octet value: digits and their count, so a dotted
/// quad is written with four table copies instead of a format parse.
struct DecimalOctet {
  char digits[3];
  std::uint8_t len;
};

constexpr std::array<DecimalOctet, 256> make_decimal_octets() {
  std::array<DecimalOctet, 256> table{};
  for (unsigned v = 0; v < 256; ++v) {
    DecimalOctet& d = table[v];
    if (v >= 100) d.digits[d.len++] = static_cast<char>('0' + v / 100);
    if (v >= 10) d.digits[d.len++] = static_cast<char>('0' + v / 10 % 10);
    d.digits[d.len++] = static_cast<char>('0' + v % 10);
  }
  return table;
}

constexpr std::array<DecimalOctet, 256> kDecimalOctets = make_decimal_octets();

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
  std::string out(17, ':');
  for (std::size_t i = 0; i < 6; ++i) {
    out[i * 3] = kHexDigits[octets_[i] >> 4];
    out[i * 3 + 1] = kHexDigits[octets_[i] & 0xf];
  }
  return out;
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
  char buf[15];
  std::size_t len = 0;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const DecimalOctet& d = kDecimalOctets[(value_ >> shift) & 0xff];
    for (std::uint8_t i = 0; i < d.len; ++i) buf[len++] = d.digits[i];
    if (shift > 0) buf[len++] = '.';
  }
  return std::string(buf, len);
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
