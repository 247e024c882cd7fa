// Canonical packed form of the OpenFlow 1.0 12-tuple. The classifier never
// compares Match structs field by field on the fast path: a packet (or rule)
// is flattened once into a FlowKey — five 64-bit words with fixed field
// positions — and a rule's wildcard bitmap becomes a FlowMask over the same
// words. Matching is then three vector ops: mask, compare, hash. This is the
// same canonicalisation Open vSwitch performs between its microflow cache
// and tuple-space classifier (Pfaff et al., NSDI 2015).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "openflow/match.hpp"

namespace hw::ofp {

/// The 12-tuple packed into five words. Field positions (word:bits, high to
/// low within the word):
///
///   w0: dl_src(63..16)  in_port(15..0)
///   w1: dl_dst(63..16)  dl_vlan(15..0)
///   w2: nw_src(63..32)  nw_dst(31..0)
///   w3: dl_type(63..48) tp_src(47..32) tp_dst(31..16) dl_vlan_pcp(15..8) nw_tos(7..0)
///   w4: nw_proto(7..0)
///
/// Unused bits are always zero, so two keys are equal iff the tuples are.
struct FlowKey {
  static constexpr std::size_t kWords = 5;
  using Words = std::array<std::uint64_t, kWords>;

  Words w{};

  /// Flattens a Match's field values (wildcards ignored: wildcarded fields
  /// contribute whatever raw value the Match carries, exactly like the
  /// field-by-field comparisons did).
  static FlowKey from_match(const Match& m);

  /// Flow extraction (OpenFlow 1.0 §3.4) straight from a parsed frame:
  /// the exact key the datapath looks up. Match::from_packet is this key's
  /// to_match().
  static FlowKey from_packet(const net::ParsedPacket& p, std::uint16_t in_port);

  /// Reconstructs a Match carrying this key's field values under the given
  /// wildcard bitmap. from_match(to_match(0)) round-trips exactly.
  [[nodiscard]] Match to_match(std::uint32_t wildcards = 0) const;

  // Field accessors (diagnostics and conversion; not used on the fast path).
  [[nodiscard]] std::uint16_t in_port() const { return static_cast<std::uint16_t>(w[0]); }
  [[nodiscard]] std::uint64_t dl_src_bits() const { return w[0] >> 16; }
  [[nodiscard]] std::uint64_t dl_dst_bits() const { return w[1] >> 16; }
  [[nodiscard]] std::uint16_t dl_vlan() const { return static_cast<std::uint16_t>(w[1]); }
  [[nodiscard]] std::uint32_t nw_src() const { return static_cast<std::uint32_t>(w[2] >> 32); }
  [[nodiscard]] std::uint32_t nw_dst() const { return static_cast<std::uint32_t>(w[2]); }
  [[nodiscard]] std::uint16_t dl_type() const { return static_cast<std::uint16_t>(w[3] >> 48); }
  [[nodiscard]] std::uint16_t tp_src() const { return static_cast<std::uint16_t>(w[3] >> 32); }
  [[nodiscard]] std::uint16_t tp_dst() const { return static_cast<std::uint16_t>(w[3] >> 16); }
  [[nodiscard]] std::uint8_t dl_vlan_pcp() const { return static_cast<std::uint8_t>(w[3] >> 8); }
  [[nodiscard]] std::uint8_t nw_tos() const { return static_cast<std::uint8_t>(w[3]); }
  [[nodiscard]] std::uint8_t nw_proto() const { return static_cast<std::uint8_t>(w[4]); }

  /// FNV-1a over the five words; good enough dispersion for the subtable
  /// hash maps and the microflow cache, and one multiply per word.
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t word : w) {
      h ^= word;
      h *= 0x100000001b3ull;
    }
    return h;
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// Per-bit validity mask over FlowKey words, derived from an OFPFW_*
/// wildcard bitmap: exact fields are all-ones, wildcarded fields all-zeros,
/// nw_src/nw_dst carry their CIDR prefix mask. Two Matches with the same
/// wildcard bitmap always derive the same FlowMask.
struct FlowMask {
  FlowKey::Words w{};

  static FlowMask from_wildcards(std::uint32_t wildcards);

  friend bool operator==(const FlowMask&, const FlowMask&) = default;
};

/// key & mask, word-wise: the canonical "relevant bits" of a key under a
/// rule's mask. A rule covers a packet iff
/// apply(mask, rule_key) == apply(mask, packet_key).
inline FlowKey apply(const FlowMask& mask, const FlowKey& key) {
  FlowKey out;
  for (std::size_t i = 0; i < FlowKey::kWords; ++i) out.w[i] = key.w[i] & mask.w[i];
  return out;
}

/// Hash functor for unordered containers keyed by FlowKey.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};

}  // namespace hw::ofp
