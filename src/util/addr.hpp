// Link-layer and network-layer address value types.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace hw {

/// 48-bit IEEE 802 MAC address.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  explicit constexpr MacAddress(std::array<std::uint8_t, 6> octets) : octets_(octets) {}

  /// Parses "aa:bb:cc:dd:ee:ff" (case-insensitive).
  static Result<MacAddress> parse(std::string_view text);
  /// Deterministic locally-administered address derived from an index; used by
  /// the simulator to mint device MACs.
  static MacAddress from_index(std::uint32_t index);

  static constexpr MacAddress broadcast() {
    return MacAddress{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}};
  }
  static constexpr MacAddress zero() { return MacAddress{}; }

  [[nodiscard]] bool is_broadcast() const { return *this == broadcast(); }
  [[nodiscard]] bool is_multicast() const { return (octets_[0] & 0x01) != 0; }
  [[nodiscard]] bool is_zero() const { return *this == zero(); }

  [[nodiscard]] const std::array<std::uint8_t, 6>& octets() const { return octets_; }
  [[nodiscard]] std::string to_string() const;
  /// Packs into the low 48 bits of a u64 (OpenFlow stats keys, hashing).
  [[nodiscard]] constexpr std::uint64_t to_u64() const {
    std::uint64_t v = 0;
    for (auto o : octets_) v = (v << 8) | o;
    return v;
  }

  auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<std::uint8_t, 6> octets_{};
};

/// IPv4 address stored in host order internally; wire codecs convert.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t host_order) : value_(host_order) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | d) {}

  /// Parses dotted-quad "192.168.1.1".
  static Result<Ipv4Address> parse(std::string_view text);

  static constexpr Ipv4Address any() { return Ipv4Address{}; }
  static constexpr Ipv4Address broadcast() { return Ipv4Address{0xffffffffu}; }

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] bool is_zero() const { return value_ == 0; }
  [[nodiscard]] bool is_broadcast() const { return value_ == 0xffffffffu; }
  [[nodiscard]] bool is_multicast() const { return (value_ >> 28) == 0xe; }
  [[nodiscard]] std::string to_string() const;

  /// True if `other` is in the same subnet under `prefix_len` bits of mask.
  [[nodiscard]] bool same_subnet(Ipv4Address other, int prefix_len) const;

  auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t value_ = 0;
};

/// Subnet description used by the DHCP server and router configuration.
struct Ipv4Subnet {
  Ipv4Address network;
  int prefix_len = 24;

  [[nodiscard]] bool contains(Ipv4Address addr) const {
    return network.same_subnet(addr, prefix_len);
  }
  [[nodiscard]] Ipv4Address mask() const {
    return Ipv4Address{prefix_len == 0 ? 0u : (~0u << (32 - prefix_len))};
  }
  [[nodiscard]] std::string to_string() const;
};

}  // namespace hw

template <>
struct std::hash<hw::MacAddress> {
  std::size_t operator()(const hw::MacAddress& m) const noexcept {
    return std::hash<std::uint64_t>{}(m.to_u64());
  }
};

template <>
struct std::hash<hw::Ipv4Address> {
  std::size_t operator()(const hw::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
