#include "openflow/match.hpp"

#include <algorithm>
#include <cstdio>

#include "net/ethernet.hpp"
#include "openflow/flow_key.hpp"

namespace hw::ofp {
Match Match::from_packet(const net::ParsedPacket& p, std::uint16_t in_port) {
  return FlowKey::from_packet(p, in_port).to_match(0);
}

Match& Match::with_in_port(std::uint16_t port) {
  in_port = port;
  wildcards &= ~Wildcards::kInPort;
  return *this;
}
Match& Match::with_dl_src(MacAddress mac) {
  dl_src = mac;
  wildcards &= ~Wildcards::kDlSrc;
  return *this;
}
Match& Match::with_dl_dst(MacAddress mac) {
  dl_dst = mac;
  wildcards &= ~Wildcards::kDlDst;
  return *this;
}
Match& Match::with_dl_type(std::uint16_t type) {
  dl_type = type;
  wildcards &= ~Wildcards::kDlType;
  return *this;
}
Match& Match::with_nw_proto(std::uint8_t proto) {
  nw_proto = proto;
  wildcards &= ~Wildcards::kNwProto;
  return *this;
}
Match& Match::with_nw_src(Ipv4Address addr, int prefix_len) {
  nw_src = addr;
  const std::uint32_t ignored = static_cast<std::uint32_t>(32 - prefix_len);
  wildcards = (wildcards & ~Wildcards::kNwSrcMask) |
              (ignored << Wildcards::kNwSrcShift);
  return *this;
}
Match& Match::with_nw_dst(Ipv4Address addr, int prefix_len) {
  nw_dst = addr;
  const std::uint32_t ignored = static_cast<std::uint32_t>(32 - prefix_len);
  wildcards = (wildcards & ~Wildcards::kNwDstMask) |
              (ignored << Wildcards::kNwDstShift);
  return *this;
}
Match& Match::with_tp_src(std::uint16_t port) {
  tp_src = port;
  wildcards &= ~Wildcards::kTpSrc;
  return *this;
}
Match& Match::with_tp_dst(std::uint16_t port) {
  tp_dst = port;
  wildcards &= ~Wildcards::kTpDst;
  return *this;
}

// The three pattern relations all reduce to one operation on the packed
// form: mask both keys with the relevant FlowMask and compare words. This is
// the single matching code path the classifier, the stats filters and the
// strict flow-mod comparisons share.

bool Match::covers(const Match& pkt) const {
  const FlowMask mask = FlowMask::from_wildcards(wildcards);
  return apply(mask, FlowKey::from_match(*this)) ==
         apply(mask, FlowKey::from_match(pkt));
}

bool Match::same_pattern(const Match& other) const {
  if (wildcards != other.wildcards) return false;
  const FlowMask mask = FlowMask::from_wildcards(wildcards);
  return apply(mask, FlowKey::from_match(*this)) ==
         apply(mask, FlowKey::from_match(other));
}

bool Match::overlaps(const Match& other) const {
  // Two patterns overlap iff they agree on the bits both consider relevant:
  // the intersection of the masks. For the nw fields this is exactly "agree
  // under the looser of the two prefixes".
  const FlowMask a = FlowMask::from_wildcards(wildcards);
  const FlowMask b = FlowMask::from_wildcards(other.wildcards);
  FlowMask common;
  for (std::size_t i = 0; i < FlowKey::kWords; ++i) common.w[i] = a.w[i] & b.w[i];
  return apply(common, FlowKey::from_match(*this)) ==
         apply(common, FlowKey::from_match(other));
}

void Match::serialize(ByteWriter& w) const {
  w.u32(wildcards);
  w.u16(in_port);
  w.raw(dl_src.octets().data(), 6);
  w.raw(dl_dst.octets().data(), 6);
  w.u16(dl_vlan);
  w.u8(dl_vlan_pcp);
  w.u8(0);  // pad
  w.u16(dl_type);
  w.u8(nw_tos);
  w.u8(nw_proto);
  w.zeros(2);  // pad
  w.u32(nw_src.value());
  w.u32(nw_dst.value());
  w.u16(tp_src);
  w.u16(tp_dst);
}

Result<Match> Match::parse(ByteReader& r) {
  Match m;
  auto wc = r.u32();
  if (!wc) return wc.error();
  m.wildcards = wc.value() & Wildcards::kAll;
  auto in_port = r.u16();
  if (!in_port) return in_port.error();
  m.in_port = in_port.value();
  auto src = net::read_mac(r);
  if (!src) return src.error();
  m.dl_src = src.value();
  auto dst = net::read_mac(r);
  if (!dst) return dst.error();
  m.dl_dst = dst.value();
  auto vlan = r.u16();
  if (!vlan) return vlan.error();
  m.dl_vlan = vlan.value();
  auto pcp = r.u8();
  if (!pcp) return pcp.error();
  m.dl_vlan_pcp = pcp.value();
  if (auto s = r.skip(1); !s.ok()) return s.error();
  auto type = r.u16();
  if (!type) return type.error();
  m.dl_type = type.value();
  auto tos = r.u8();
  if (!tos) return tos.error();
  m.nw_tos = tos.value();
  auto proto = r.u8();
  if (!proto) return proto.error();
  m.nw_proto = proto.value();
  if (auto s = r.skip(2); !s.ok()) return s.error();
  auto nw_src = r.u32();
  if (!nw_src) return nw_src.error();
  m.nw_src = Ipv4Address{nw_src.value()};
  auto nw_dst = r.u32();
  if (!nw_dst) return nw_dst.error();
  m.nw_dst = Ipv4Address{nw_dst.value()};
  auto tp_src = r.u16();
  if (!tp_src) return tp_src.error();
  m.tp_src = tp_src.value();
  auto tp_dst = r.u16();
  if (!tp_dst) return tp_dst.error();
  m.tp_dst = tp_dst.value();
  return m;
}

std::string Match::to_string() const {
  std::string out = "{";
  auto field = [&](const char* name, const std::string& value, bool wildcarded) {
    if (wildcarded) return;
    if (out.size() > 1) out += ", ";
    out += name;
    out += "=";
    out += value;
  };
  field("in_port", std::to_string(in_port), wildcards & Wildcards::kInPort);
  field("dl_src", dl_src.to_string(), wildcards & Wildcards::kDlSrc);
  field("dl_dst", dl_dst.to_string(), wildcards & Wildcards::kDlDst);
  char hex[8];
  std::snprintf(hex, sizeof hex, "0x%04x", dl_type);
  field("dl_type", hex, wildcards & Wildcards::kDlType);
  field("nw_proto", std::to_string(nw_proto), wildcards & Wildcards::kNwProto);
  if (nw_src_ignored_bits() < 32) {
    field("nw_src",
          nw_src.to_string() + "/" + std::to_string(32 - nw_src_ignored_bits()),
          false);
  }
  if (nw_dst_ignored_bits() < 32) {
    field("nw_dst",
          nw_dst.to_string() + "/" + std::to_string(32 - nw_dst_ignored_bits()),
          false);
  }
  field("tp_src", std::to_string(tp_src), wildcards & Wildcards::kTpSrc);
  field("tp_dst", std::to_string(tp_dst), wildcards & Wildcards::kTpDst);
  if (out.size() == 1) out += "*";
  out += "}";
  return out;
}

}  // namespace hw::ofp
