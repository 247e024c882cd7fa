#include "openflow/flow_key.hpp"

#include <cstdio>

namespace hw::ofp {
namespace {

MacAddress mac_from_bits(std::uint64_t bits) {
  std::array<std::uint8_t, 6> octets{};
  for (int i = 5; i >= 0; --i) {
    octets[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(bits);
    bits >>= 8;
  }
  return MacAddress{octets};
}

/// Prefix mask for an nw field: the OF1.0 encoding counts *ignored* low
/// bits, >= 32 meaning fully wildcarded.
constexpr std::uint64_t nw_mask(int ignored_bits) {
  if (ignored_bits >= 32) return 0;
  const std::uint32_t m = ignored_bits == 0 ? ~0u : (~0u << ignored_bits);
  return m;
}

}  // namespace

FlowKey FlowKey::from_match(const Match& m) {
  FlowKey k;
  k.w[0] = (m.dl_src.to_u64() << 16) | m.in_port;
  k.w[1] = (m.dl_dst.to_u64() << 16) | m.dl_vlan;
  k.w[2] = (std::uint64_t{m.nw_src.value()} << 32) | m.nw_dst.value();
  k.w[3] = (std::uint64_t{m.dl_type} << 48) | (std::uint64_t{m.tp_src} << 32) |
           (std::uint64_t{m.tp_dst} << 16) | (std::uint64_t{m.dl_vlan_pcp} << 8) |
           m.nw_tos;
  k.w[4] = m.nw_proto;
  return k;
}

FlowKey FlowKey::from_packet(const net::ParsedPacket& p, std::uint16_t in_port) {
  std::uint64_t nw_tos = 0;
  std::uint64_t nw_proto = 0;
  std::uint64_t nw_src = 0;
  std::uint64_t nw_dst = 0;
  std::uint64_t tp_src = 0;
  std::uint64_t tp_dst = 0;
  if (p.ip) {
    nw_tos = p.ip->dscp & 0xfc;
    nw_proto = p.ip->protocol;
    nw_src = p.ip->src.value();
    nw_dst = p.ip->dst.value();
    if (p.udp) {
      tp_src = p.udp->src_port;
      tp_dst = p.udp->dst_port;
    } else if (p.tcp) {
      tp_src = p.tcp->src_port;
      tp_dst = p.tcp->dst_port;
    } else if (p.icmp) {
      // OF1.0: ICMP type/code go in tp_src/tp_dst.
      tp_src = static_cast<std::uint8_t>(p.icmp->type);
      tp_dst = p.icmp->code;
    }
  } else if (p.arp) {
    // OF1.0 matches ARP via nw fields: opcode in nw_proto, IPs in nw_src/dst.
    nw_proto = static_cast<std::uint8_t>(p.arp->op);
    nw_src = p.arp->sender_ip.value();
    nw_dst = p.arp->target_ip.value();
  }
  constexpr std::uint64_t kUntagged = 0xffff;  // OFP_VLAN_NONE
  FlowKey k;
  k.w[0] = (p.eth.src.to_u64() << 16) | in_port;
  k.w[1] = (p.eth.dst.to_u64() << 16) | kUntagged;
  k.w[2] = (nw_src << 32) | nw_dst;
  k.w[3] = (std::uint64_t{p.eth.ethertype} << 48) | (tp_src << 32) |
           (tp_dst << 16) | nw_tos;
  k.w[4] = nw_proto;
  return k;
}

Match FlowKey::to_match(std::uint32_t wildcards) const {
  Match m;
  m.wildcards = wildcards;
  m.in_port = in_port();
  m.dl_src = mac_from_bits(dl_src_bits());
  m.dl_dst = mac_from_bits(dl_dst_bits());
  m.dl_vlan = dl_vlan();
  m.dl_vlan_pcp = dl_vlan_pcp();
  m.dl_type = dl_type();
  m.nw_tos = nw_tos();
  m.nw_proto = nw_proto();
  m.nw_src = Ipv4Address{nw_src()};
  m.nw_dst = Ipv4Address{nw_dst()};
  m.tp_src = tp_src();
  m.tp_dst = tp_dst();
  return m;
}

std::string FlowKey::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "key{%016llx %016llx %016llx %016llx %02llx}",
                static_cast<unsigned long long>(w[0]),
                static_cast<unsigned long long>(w[1]),
                static_cast<unsigned long long>(w[2]),
                static_cast<unsigned long long>(w[3]),
                static_cast<unsigned long long>(w[4]));
  return buf;
}

FlowMask FlowMask::from_wildcards(std::uint32_t wildcards) {
  const auto exact = [&](std::uint32_t bit) { return (wildcards & bit) == 0; };
  FlowMask m;
  m.w[0] = (exact(Wildcards::kDlSrc) ? 0xffffffffffffull << 16 : 0) |
           (exact(Wildcards::kInPort) ? 0xffffull : 0);
  m.w[1] = (exact(Wildcards::kDlDst) ? 0xffffffffffffull << 16 : 0) |
           (exact(Wildcards::kDlVlan) ? 0xffffull : 0);
  const int src_ignored = static_cast<int>((wildcards & Wildcards::kNwSrcMask) >>
                                           Wildcards::kNwSrcShift);
  const int dst_ignored = static_cast<int>((wildcards & Wildcards::kNwDstMask) >>
                                           Wildcards::kNwDstShift);
  m.w[2] = (nw_mask(src_ignored) << 32) | nw_mask(dst_ignored);
  m.w[3] = (exact(Wildcards::kDlType) ? 0xffffull << 48 : 0) |
           (exact(Wildcards::kTpSrc) ? 0xffffull << 32 : 0) |
           (exact(Wildcards::kTpDst) ? 0xffffull << 16 : 0) |
           (exact(Wildcards::kDlVlanPcp) ? 0xffull << 8 : 0) |
           (exact(Wildcards::kNwTos) ? 0xffull : 0);
  m.w[4] = exact(Wildcards::kNwProto) ? 0xffull : 0;
  return m;
}

}  // namespace hw::ofp
