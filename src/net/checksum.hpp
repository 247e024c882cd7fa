// RFC 1071 Internet checksum, used by IPv4/ICMP (and TCP/UDP pseudo-header).
#pragma once

#include <cstdint>
#include <span>

#include "util/addr.hpp"

namespace hw::net {

/// One's-complement sum over `data`, folded to 16 bits and complemented.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// Incremental update (RFC 1624, eqn. 3: HC' = ~(~HC + ~m + m')) of a
/// checksum `sum` whose covered data had one 32-bit field change from
/// `old_value` to `new_value`. Equals a full recomputation whenever `sum`
/// was correct, so in-place header patching keeps checksums valid.
std::uint16_t checksum_adjust(std::uint16_t sum, std::uint32_t old_value,
                              std::uint32_t new_value);

/// TCP/UDP checksum including the IPv4 pseudo-header.
std::uint16_t l4_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                          std::span<const std::uint8_t> segment);

}  // namespace hw::net
