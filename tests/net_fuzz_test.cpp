// Malformed-wire property tests for the packet codecs. The frame parser,
// which reads each header with one bounds check and fills the packet in
// place, is checked against a field-by-field ByteReader parser kept here as
// the oracle: both must accept and reject the same frames and read the same
// fields and payload. The DHCP and DNS decoders get the same truncations and
// byte flips, with their allocation bounded by the input's size.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "net/checksum.hpp"
#include "net/dhcp.hpp"
#include "net/dns.hpp"
#include "net/packet.hpp"
#include "util/rand.hpp"

// Bytes and calls requested from operator new while counting is on.
static bool g_count_allocs = false;
static std::size_t g_alloc_bytes = 0;
static std::size_t g_alloc_calls = 0;

// The free() calls pair with the malloc() in the replacement operator new;
// GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs) {
    g_alloc_bytes += n;
    ++g_alloc_calls;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hw::net {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the field-by-field parser, one bounds-checked ByteReader call per
// field and one Result per layer.

namespace oracle {

Result<EthernetHeader> ethernet(ByteReader& r) {
  auto dst = read_mac(r);
  if (!dst) return dst.error();
  auto src = read_mac(r);
  if (!src) return src.error();
  auto ethertype = r.u16();
  if (!ethertype) return ethertype.error();
  return EthernetHeader{dst.value(), src.value(), ethertype.value()};
}

Result<ArpMessage> arp(ByteReader& r) {
  auto htype = r.u16();
  if (!htype) return htype.error();
  auto ptype = r.u16();
  if (!ptype) return ptype.error();
  auto hlen = r.u8();
  if (!hlen) return hlen.error();
  auto plen = r.u8();
  if (!plen) return plen.error();
  if (htype.value() != 1 || ptype.value() != 0x0800 || hlen.value() != 6 ||
      plen.value() != 4) {
    return make_error("ARP: unsupported hardware/protocol type");
  }
  auto op = r.u16();
  if (!op) return op.error();
  if (op.value() != 1 && op.value() != 2) return make_error("ARP: bad opcode");
  ArpMessage m;
  m.op = static_cast<ArpOp>(op.value());
  auto smac = read_mac(r);
  if (!smac) return smac.error();
  m.sender_mac = smac.value();
  auto sip = r.u32();
  if (!sip) return sip.error();
  m.sender_ip = Ipv4Address{sip.value()};
  auto tmac = read_mac(r);
  if (!tmac) return tmac.error();
  m.target_mac = tmac.value();
  auto tip = r.u32();
  if (!tip) return tip.error();
  m.target_ip = Ipv4Address{tip.value()};
  return m;
}

Result<Ipv4Header> ipv4(ByteReader& r) {
  auto ver_ihl = r.u8();
  if (!ver_ihl) return ver_ihl.error();
  const std::size_t ihl = (ver_ihl.value() & 0x0f) * 4u;
  if (ver_ihl.value() >> 4 != 4) return make_error("IPv4: bad version");
  if (ihl < kIpv4MinHeaderSize) return make_error("IPv4: bad IHL");
  Ipv4Header h;
  auto dscp = r.u8();
  if (!dscp) return dscp.error();
  h.dscp = dscp.value();
  auto total_length = r.u16();
  if (!total_length) return total_length.error();
  h.total_length = total_length.value();
  if (h.total_length < ihl) return make_error("IPv4: total length < header");
  auto ident = r.u16();
  if (!ident) return ident.error();
  h.identification = ident.value();
  if (auto flags_frag = r.u16(); !flags_frag) return flags_frag.error();
  auto ttl = r.u8();
  if (!ttl) return ttl.error();
  h.ttl = ttl.value();
  auto proto = r.u8();
  if (!proto) return proto.error();
  h.protocol = proto.value();
  if (auto checksum = r.u16(); !checksum) return checksum.error();
  auto src = r.u32();
  if (!src) return src.error();
  h.src = Ipv4Address{src.value()};
  auto dst = r.u32();
  if (!dst) return dst.error();
  h.dst = Ipv4Address{dst.value()};
  if (auto s = r.skip(ihl - kIpv4MinHeaderSize); !s.ok()) return s.error();
  return h;
}

Result<UdpHeader> udp(ByteReader& r) {
  UdpHeader h;
  auto sp = r.u16();
  if (!sp) return sp.error();
  h.src_port = sp.value();
  auto dp = r.u16();
  if (!dp) return dp.error();
  h.dst_port = dp.value();
  auto len = r.u16();
  if (!len) return len.error();
  h.length = len.value();
  if (h.length < kUdpHeaderSize) return make_error("UDP: bad length");
  if (auto c = r.u16(); !c) return c.error();
  return h;
}

Result<TcpHeader> tcp(ByteReader& r) {
  TcpHeader h;
  auto sp = r.u16();
  if (!sp) return sp.error();
  h.src_port = sp.value();
  auto dp = r.u16();
  if (!dp) return dp.error();
  h.dst_port = dp.value();
  auto seq = r.u32();
  if (!seq) return seq.error();
  h.seq = seq.value();
  auto ack = r.u32();
  if (!ack) return ack.error();
  h.ack = ack.value();
  auto off_flags = r.u16();
  if (!off_flags) return off_flags.error();
  const std::size_t data_offset = ((off_flags.value() >> 12) & 0xf) * 4u;
  if (data_offset < kTcpMinHeaderSize) return make_error("TCP: bad data offset");
  h.flags = static_cast<std::uint8_t>(off_flags.value() & 0x3f);
  auto window = r.u16();
  if (!window) return window.error();
  h.window = window.value();
  if (auto c = r.u16(); !c) return c.error();
  if (auto u = r.u16(); !u) return u.error();
  if (auto s = r.skip(data_offset - kTcpMinHeaderSize); !s.ok()) return s.error();
  return h;
}

Result<IcmpHeader> icmp(ByteReader& r) {
  IcmpHeader h;
  auto type = r.u8();
  if (!type) return type.error();
  h.type = static_cast<IcmpType>(type.value());
  auto code = r.u8();
  if (!code) return code.error();
  h.code = code.value();
  if (auto c = r.u16(); !c) return c.error();
  auto ident = r.u16();
  if (!ident) return ident.error();
  h.identifier = ident.value();
  auto seq = r.u16();
  if (!seq) return seq.error();
  h.sequence = seq.value();
  return h;
}

Result<ParsedPacket> parse(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  ParsedPacket p;
  p.frame_size = frame.size();
  auto eth = ethernet(r);
  if (!eth) return eth.error();
  p.eth = eth.value();
  switch (p.eth.type()) {
    case EtherType::Arp: {
      auto a = arp(r);
      if (!a) return a.error();
      p.arp = a.value();
      return p;
    }
    case EtherType::Ipv4:
      break;
    default:
      return p;
  }
  auto ip = ipv4(r);
  if (!ip) return ip.error();
  p.ip = ip.value();
  switch (p.ip->proto()) {
    case IpProto::Udp: {
      auto u = udp(r);
      if (!u) return u.error();
      p.udp = u.value();
      const std::size_t payload_len =
          p.udp->length > kUdpHeaderSize ? p.udp->length - kUdpHeaderSize : 0;
      auto payload = r.view(std::min(payload_len, r.remaining()));
      if (!payload) return payload.error();
      p.l4_payload = payload.value();
      break;
    }
    case IpProto::Tcp: {
      auto t = tcp(r);
      if (!t) return t.error();
      p.tcp = t.value();
      auto payload = r.view(r.remaining());
      if (!payload) return payload.error();
      p.l4_payload = payload.value();
      break;
    }
    case IpProto::Icmp: {
      auto i = icmp(r);
      if (!i) return i.error();
      p.icmp = i.value();
      break;
    }
    default:
      break;
  }
  return p;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Mutations shared by every codec below.

/// Calls `f` on every proper prefix of `wire` and on `wire` with each byte
/// XORed by each mask in turn (single-bit, nibble and whole-byte flips).
void for_each_mutation(const Bytes& wire, const std::function<void(const Bytes&)>& f) {
  for (std::size_t len = 0; len < wire.size(); ++len) {
    f(Bytes(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)));
  }
  Bytes flipped = wire;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t mask : {0x01, 0x08, 0x10, 0x80, 0xf0, 0xff}) {
      flipped[i] ^= mask;
      f(flipped);
      flipped[i] ^= mask;
    }
  }
}

// ---------------------------------------------------------------------------
// Frame parser against the oracle

const MacAddress kMacA = MacAddress::from_index(1);
const MacAddress kMacB = MacAddress::from_index(2);
const Ipv4Address kIpA{192, 168, 1, 100};
const Ipv4Address kIpB{10, 0, 0, 1};

/// Where `s` starts in `frame`, or -1 for a default (null) view.
std::ptrdiff_t offset_in(std::span<const std::uint8_t> s, const Bytes& frame) {
  return s.data() == nullptr ? -1 : s.data() - frame.data();
}

/// Parses `frame` both ways and expects the same verdict, every field of
/// every layer and the same payload view. An accepted frame must parse
/// without allocating.
void expect_same_parse(const Bytes& frame) {
  g_alloc_calls = 0;
  g_count_allocs = true;
  const auto got = ParsedPacket::parse(frame);
  g_count_allocs = false;
  const auto want = oracle::parse(frame);
  const std::string where = "frame " + hex_dump(frame, 80);
  ASSERT_EQ(got.ok(), want.ok()) << where;
  if (!got.ok()) return;
  EXPECT_EQ(g_alloc_calls, 0u) << where;
  const ParsedPacket& a = got.value();
  const ParsedPacket& b = want.value();
  EXPECT_EQ(a.frame_size, b.frame_size) << where;
  EXPECT_EQ(a.eth.dst, b.eth.dst) << where;
  EXPECT_EQ(a.eth.src, b.eth.src) << where;
  EXPECT_EQ(a.eth.ethertype, b.eth.ethertype) << where;
  ASSERT_EQ(a.arp.has_value(), b.arp.has_value()) << where;
  if (a.arp) {
    EXPECT_EQ(a.arp->op, b.arp->op) << where;
    EXPECT_EQ(a.arp->sender_mac, b.arp->sender_mac) << where;
    EXPECT_EQ(a.arp->sender_ip, b.arp->sender_ip) << where;
    EXPECT_EQ(a.arp->target_mac, b.arp->target_mac) << where;
    EXPECT_EQ(a.arp->target_ip, b.arp->target_ip) << where;
  }
  ASSERT_EQ(a.ip.has_value(), b.ip.has_value()) << where;
  if (a.ip) {
    EXPECT_EQ(a.ip->dscp, b.ip->dscp) << where;
    EXPECT_EQ(a.ip->total_length, b.ip->total_length) << where;
    EXPECT_EQ(a.ip->identification, b.ip->identification) << where;
    EXPECT_EQ(a.ip->ttl, b.ip->ttl) << where;
    EXPECT_EQ(a.ip->protocol, b.ip->protocol) << where;
    EXPECT_EQ(a.ip->src, b.ip->src) << where;
    EXPECT_EQ(a.ip->dst, b.ip->dst) << where;
  }
  ASSERT_EQ(a.udp.has_value(), b.udp.has_value()) << where;
  if (a.udp) {
    EXPECT_EQ(a.udp->src_port, b.udp->src_port) << where;
    EXPECT_EQ(a.udp->dst_port, b.udp->dst_port) << where;
    EXPECT_EQ(a.udp->length, b.udp->length) << where;
  }
  ASSERT_EQ(a.tcp.has_value(), b.tcp.has_value()) << where;
  if (a.tcp) {
    EXPECT_EQ(a.tcp->src_port, b.tcp->src_port) << where;
    EXPECT_EQ(a.tcp->dst_port, b.tcp->dst_port) << where;
    EXPECT_EQ(a.tcp->seq, b.tcp->seq) << where;
    EXPECT_EQ(a.tcp->ack, b.tcp->ack) << where;
    EXPECT_EQ(a.tcp->flags, b.tcp->flags) << where;
    EXPECT_EQ(a.tcp->window, b.tcp->window) << where;
  }
  ASSERT_EQ(a.icmp.has_value(), b.icmp.has_value()) << where;
  if (a.icmp) {
    EXPECT_EQ(a.icmp->type, b.icmp->type) << where;
    EXPECT_EQ(a.icmp->code, b.icmp->code) << where;
    EXPECT_EQ(a.icmp->identifier, b.icmp->identifier) << where;
    EXPECT_EQ(a.icmp->sequence, b.icmp->sequence) << where;
  }
  EXPECT_EQ(offset_in(a.l4_payload, frame), offset_in(b.l4_payload, frame)) << where;
  EXPECT_EQ(a.l4_payload.size(), b.l4_payload.size()) << where;
}

/// Rewrites the IPv4 frame `frame` to carry `words` 32-bit words of IP
/// options (NOPs, then an EOL), so its IHL reads 5 + words.
Bytes with_ip_options(Bytes frame, std::size_t words) {
  const std::size_t ip = kEthernetHeaderSize;
  const auto at = frame.begin() + static_cast<std::ptrdiff_t>(ip + kIpv4MinHeaderSize);
  Bytes options(4 * words, 0x01);
  options.back() = 0x00;
  frame.insert(at, options.begin(), options.end());
  frame[ip] = static_cast<std::uint8_t>(0x40 | (5 + words));
  const std::size_t total = frame.size() - ip;
  frame[ip + 2] = static_cast<std::uint8_t>(total >> 8);
  frame[ip + 3] = static_cast<std::uint8_t>(total);
  return frame;
}

/// A TCP frame whose header carries `words` 32-bit words of options.
Bytes tcp_with_options(std::size_t words, std::size_t payload) {
  TcpHeader h{40000, 443, 0xdeadbeef, 0x01020304, TcpFlags::kPsh | TcpFlags::kAck,
              4096};
  Bytes frame = build_tcp(kMacA, kMacB, kIpA, kIpB, h, Bytes(payload, 0x5a));
  const std::size_t tcp = kEthernetHeaderSize + kIpv4MinHeaderSize;
  Bytes options(4 * words, 0x01);
  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(tcp + kTcpMinHeaderSize),
               options.begin(), options.end());
  frame[tcp + 12] = static_cast<std::uint8_t>((5 + words) << 4);
  const std::size_t total = frame.size() - kEthernetHeaderSize;
  frame[kEthernetHeaderSize + 2] = static_cast<std::uint8_t>(total >> 8);
  frame[kEthernetHeaderSize + 3] = static_cast<std::uint8_t>(total);
  return frame;
}

std::vector<Bytes> seed_frames() {
  std::vector<Bytes> out;
  ArpMessage arp{ArpOp::Request, kMacA, kIpA, MacAddress::zero(), kIpB};
  out.push_back(build_arp(arp));
  arp.op = ArpOp::Reply;
  arp.target_mac = kMacB;
  out.push_back(build_arp(arp));
  out.push_back(build_udp(kMacA, kMacB, kIpA, kIpB, 5000, 6000, Bytes(18, 0x33)));
  out.push_back(build_udp(kMacA, kMacB, kIpA, kIpB, 5000, 6000, {}));
  out.push_back(build_dhcp_frame(kMacA, MacAddress::broadcast(), Ipv4Address::any(),
                                 Ipv4Address::broadcast(), true,
                                 DhcpMessage::discover(7, kMacA, "laptop").serialize()));
  out.push_back(build_udp(kMacA, kMacB, kIpA, kIpB, 40001, 53,
                          DnsMessage::query(9, "example.com").serialize()));
  out.push_back(build_tcp(kMacA, kMacB, kIpA, kIpB,
                          TcpHeader{40000, 80, 1, 2, TcpFlags::kSyn, 65535}, {}));
  out.push_back(tcp_with_options(1, 24));
  out.push_back(tcp_with_options(10, 3));
  out.push_back(build_icmp_echo(kMacA, kMacB, kIpA, kIpB, IcmpType::EchoRequest, 77, 3));
  out.push_back(build_icmp_echo(kMacB, kMacA, kIpB, kIpA, IcmpType::EchoReply, 77, 3));
  for (std::size_t words = 1; words <= 10; ++words) {
    out.push_back(with_ip_options(
        build_udp(kMacA, kMacB, kIpA, kIpB, 1, 2, Bytes(words, 0x44)), words));
  }
  out.push_back(build_ethernet(kMacA, kMacB, static_cast<EtherType>(0x88cc),
                               Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
  Ipv4Header gre;
  gre.src = kIpA;
  gre.dst = kIpB;
  gre.protocol = 47;
  ByteWriter w;
  gre.serialize(w, 12);
  w.zeros(12);
  out.push_back(build_ethernet(kMacA, kMacB, EtherType::Ipv4, w.bytes()));
  // Ethernet padding after a short UDP datagram: the payload ends at the
  // UDP length, not the frame's end.
  Bytes padded = build_udp(kMacA, kMacB, kIpA, kIpB, 7, 9, Bytes(2, 0x11));
  padded.resize(60, 0);
  out.push_back(padded);
  return out;
}

TEST(ParseDifferential, SeedFramesParseAsTheOracleDoes) {
  for (const Bytes& frame : seed_frames()) {
    ASSERT_TRUE(oracle::parse(frame).ok()) << hex_dump(frame, 80);
    expect_same_parse(frame);
  }
}

TEST(ParseDifferential, TruncatedAndFlippedFramesAgree) {
  for (const Bytes& frame : seed_frames()) {
    for_each_mutation(frame, expect_same_parse);
    if (HasFatalFailure()) return;
  }
}

TEST(ParseDifferential, SeededRandomBytesAgree) {
  Rng rng(20110815);
  const std::vector<Bytes> seeds = seed_frames();
  for (int i = 0; i < 20000; ++i) {
    Bytes frame;
    if (i % 4 == 0) {
      // Random bytes behind a valid Ethernet/IPv4 or ARP type, so the
      // inner layers see noise too.
      frame.resize(rng.uniform(90));
      for (auto& byte : frame) byte = static_cast<std::uint8_t>(rng.next());
      if (frame.size() >= kEthernetHeaderSize) {
        frame[12] = 0x08;
        frame[13] = rng.chance(0.8) ? 0x00 : 0x06;
      }
    } else {
      // A seed frame with a few bytes overwritten by random ones.
      frame = seeds[rng.uniform(seeds.size())];
      const std::uint64_t writes = 1 + rng.uniform(4);
      for (std::uint64_t k = 0; k < writes; ++k) {
        frame[rng.uniform(frame.size())] = static_cast<std::uint8_t>(rng.next());
      }
    }
    expect_same_parse(frame);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Serializer differential: each header is appended once and filled in
// place; the oracle writes it field by field through ByteWriter.

namespace oracle_build {

void ethernet(ByteWriter& w, MacAddress dst, MacAddress src, std::uint16_t type) {
  w.raw(dst.octets().data(), 6);
  w.raw(src.octets().data(), 6);
  w.u16(type);
}

void ipv4(ByteWriter& w, const Ipv4Header& ip, std::size_t payload_len) {
  const std::size_t start = w.size();
  w.u8(0x45);
  w.u8(ip.dscp);
  w.u16(ip.total_length != 0
            ? ip.total_length
            : static_cast<std::uint16_t>(kIpv4MinHeaderSize + payload_len));
  w.u16(ip.identification);
  w.u16(0x4000);
  w.u8(ip.ttl);
  w.u8(ip.protocol);
  w.u16(0);
  w.u32(ip.src.value());
  w.u32(ip.dst.value());
  w.patch_u16(start + 10, internet_checksum(std::span(w.bytes()).subspan(
                              start, kIpv4MinHeaderSize)));
}

void udp(ByteWriter& w, const UdpHeader& h, std::size_t payload_len) {
  w.u16(h.src_port);
  w.u16(h.dst_port);
  w.u16(h.length != 0 ? h.length
                      : static_cast<std::uint16_t>(kUdpHeaderSize + payload_len));
  w.u16(0);
}

void tcp(ByteWriter& w, const TcpHeader& h) {
  w.u16(h.src_port);
  w.u16(h.dst_port);
  w.u32(h.seq);
  w.u32(h.ack);
  w.u16(static_cast<std::uint16_t>((5u << 12) | h.flags));
  w.u16(h.window);
  w.u16(0);
  w.u16(0);
}

void icmp(ByteWriter& w, const IcmpHeader& h) {
  w.u8(static_cast<std::uint8_t>(h.type));
  w.u8(h.code);
  w.u16(0);
  w.u16(h.identifier);
  w.u16(h.sequence);
}

void arp(ByteWriter& w, const ArpMessage& m) {
  w.u16(1);
  w.u16(0x0800);
  w.u8(6);
  w.u8(4);
  w.u16(static_cast<std::uint16_t>(m.op));
  w.raw(m.sender_mac.octets().data(), 6);
  w.u32(m.sender_ip.value());
  w.raw(m.target_mac.octets().data(), 6);
  w.u32(m.target_ip.value());
}

Ipv4Header ip_of(Ipv4Address src, Ipv4Address dst, IpProto proto, std::uint8_t ttl) {
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.ttl = ttl;
  ip.protocol = static_cast<std::uint8_t>(proto);
  return ip;
}

Bytes build_udp(MacAddress smac, MacAddress dmac, Ipv4Address sip, Ipv4Address dip,
                std::uint16_t sport, std::uint16_t dport, const Bytes& payload,
                std::uint8_t ttl) {
  ByteWriter w;
  ethernet(w, dmac, smac, static_cast<std::uint16_t>(EtherType::Ipv4));
  ipv4(w, ip_of(sip, dip, IpProto::Udp, ttl), kUdpHeaderSize + payload.size());
  udp(w, UdpHeader{sport, dport, 0}, payload.size());
  w.raw(payload);
  return std::move(w).take();
}

Bytes build_tcp(MacAddress smac, MacAddress dmac, Ipv4Address sip, Ipv4Address dip,
                const TcpHeader& h, const Bytes& payload) {
  ByteWriter w;
  ethernet(w, dmac, smac, static_cast<std::uint16_t>(EtherType::Ipv4));
  ipv4(w, ip_of(sip, dip, IpProto::Tcp, 64), kTcpMinHeaderSize + payload.size());
  tcp(w, h);
  w.raw(payload);
  return std::move(w).take();
}

Bytes build_icmp_echo(MacAddress smac, MacAddress dmac, Ipv4Address sip,
                      Ipv4Address dip, IcmpType type, std::uint16_t ident,
                      std::uint16_t seq) {
  ByteWriter w;
  ethernet(w, dmac, smac, static_cast<std::uint16_t>(EtherType::Ipv4));
  ipv4(w, ip_of(sip, dip, IpProto::Icmp, 64), kIcmpHeaderSize);
  icmp(w, IcmpHeader{type, 0, ident, seq});
  return std::move(w).take();
}

Bytes build_arp(const ArpMessage& m) {
  ByteWriter w;
  ethernet(w, m.op == ArpOp::Request ? MacAddress::broadcast() : m.target_mac,
           m.sender_mac, static_cast<std::uint16_t>(EtherType::Arp));
  arp(w, m);
  return std::move(w).take();
}

}  // namespace oracle_build

MacAddress random_mac(Rng& rng) {
  std::array<std::uint8_t, 6> octets{};
  for (auto& o : octets) o = static_cast<std::uint8_t>(rng.next());
  return MacAddress{octets};
}

Ipv4Address random_ip(Rng& rng) {
  return Ipv4Address{static_cast<std::uint32_t>(rng.next())};
}

std::uint16_t random_u16(Rng& rng) { return static_cast<std::uint16_t>(rng.next()); }

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// The IPv4 header of an Ethernet frame sums to zero with its checksum in.
void expect_ipv4_checksum_verifies(const Bytes& frame) {
  ASSERT_GE(frame.size(), kEthernetHeaderSize + kIpv4MinHeaderSize);
  EXPECT_EQ(internet_checksum(std::span(frame).subspan(kEthernetHeaderSize,
                                                       kIpv4MinHeaderSize)),
            0)
      << hex_dump(frame, 40);
}

TEST(SerializeDifferential, FrameBuildersMatchFieldByFieldOracle) {
  Rng rng(0x5e71a112e);
  for (int round = 0; round < 200; ++round) {
    for (const std::size_t len : {0, 1, 17, 18, 1472}) {
      const Bytes payload = random_bytes(rng, len);
      const MacAddress smac = random_mac(rng);
      const MacAddress dmac = random_mac(rng);
      const Ipv4Address sip = random_ip(rng);
      const Ipv4Address dip = random_ip(rng);
      const std::uint16_t sport = random_u16(rng);
      const std::uint16_t dport = random_u16(rng);
      const auto ttl = static_cast<std::uint8_t>(rng.next());
      const std::string where = "round " + std::to_string(round) + ", payload " +
                                std::to_string(len);

      const Bytes udp = build_udp(smac, dmac, sip, dip, sport, dport, payload, ttl);
      ASSERT_EQ(udp, oracle_build::build_udp(smac, dmac, sip, dip, sport, dport,
                                             payload, ttl))
          << where;
      expect_ipv4_checksum_verifies(udp);

      const TcpHeader th{sport, dport, static_cast<std::uint32_t>(rng.next()),
                         static_cast<std::uint32_t>(rng.next()),
                         static_cast<std::uint8_t>(rng.next() & 0x3f),
                         random_u16(rng)};
      const Bytes tcp = build_tcp(smac, dmac, sip, dip, th, payload);
      ASSERT_EQ(tcp, oracle_build::build_tcp(smac, dmac, sip, dip, th, payload))
          << where;
      expect_ipv4_checksum_verifies(tcp);

      const bool from_client = rng.chance(0.5);
      const Bytes dhcp = build_dhcp_frame(smac, dmac, sip, dip, from_client, payload);
      ASSERT_EQ(dhcp, oracle_build::build_udp(
                          smac, dmac, sip, dip,
                          from_client ? kDhcpClientPort : kDhcpServerPort,
                          from_client ? kDhcpServerPort : kDhcpClientPort, payload, 64))
          << where;
      expect_ipv4_checksum_verifies(dhcp);
    }
    const IcmpType type = rng.chance(0.5) ? IcmpType::EchoRequest : IcmpType::EchoReply;
    const MacAddress smac = random_mac(rng);
    const MacAddress dmac = random_mac(rng);
    const Ipv4Address sip = random_ip(rng);
    const Ipv4Address dip = random_ip(rng);
    const std::uint16_t ident = random_u16(rng);
    const std::uint16_t seq = random_u16(rng);
    const Bytes icmp = build_icmp_echo(smac, dmac, sip, dip, type, ident, seq);
    ASSERT_EQ(icmp, oracle_build::build_icmp_echo(smac, dmac, sip, dip, type, ident, seq))
        << "round " << round;
    expect_ipv4_checksum_verifies(icmp);

    ArpMessage arp{rng.chance(0.5) ? ArpOp::Request : ArpOp::Reply, smac, sip, dmac,
                   dip};
    ASSERT_EQ(build_arp(arp), oracle_build::build_arp(arp)) << "round " << round;
  }
}

TEST(SerializeDifferential, HeaderFieldsMatchFieldByFieldOracle) {
  // Fields the frame builders leave at their defaults: DSCP, identification,
  // explicit IPv4 total and UDP lengths, ICMP code.
  Rng rng(0x4ead3e5);
  for (int i = 0; i < 2000; ++i) {
    Ipv4Header ip;
    ip.dscp = static_cast<std::uint8_t>(rng.next());
    ip.total_length = rng.chance(0.5) ? random_u16(rng) : 0;
    ip.identification = random_u16(rng);
    ip.ttl = static_cast<std::uint8_t>(rng.next());
    ip.protocol = static_cast<std::uint8_t>(rng.next());
    ip.src = random_ip(rng);
    ip.dst = random_ip(rng);
    const UdpHeader udp{random_u16(rng), random_u16(rng),
                        rng.chance(0.5) ? random_u16(rng) : std::uint16_t{0}};
    const IcmpHeader icmp{static_cast<IcmpType>(rng.next()),
                          static_cast<std::uint8_t>(rng.next()), random_u16(rng),
                          random_u16(rng)};
    const std::size_t payload_len = rng.uniform(1500);

    // Written behind a few bytes of prefix, as behind an Ethernet header.
    ByteWriter got;
    ByteWriter want;
    const Bytes prefix = random_bytes(rng, rng.uniform(15));
    got.raw(prefix);
    want.raw(prefix);
    ip.serialize(got, payload_len);
    udp.serialize(got, payload_len);
    icmp.serialize(got);
    oracle_build::ipv4(want, ip, payload_len);
    oracle_build::udp(want, udp, payload_len);
    oracle_build::icmp(want, icmp);
    ASSERT_EQ(got.bytes(), want.bytes()) << "case " << i;
    EXPECT_EQ(internet_checksum(std::span(got.bytes()).subspan(prefix.size(),
                                                               kIpv4MinHeaderSize)),
              0)
        << "case " << i;
  }
}

// ---------------------------------------------------------------------------
// DHCP and DNS decoders: no crash, allocation bounded by input size

/// Runs `decode` on `wire` with allocation counting on; fails when it
/// allocates more than a small multiple of the input.
void decode_bounded(const Bytes& wire, const std::function<void(const Bytes&)>& decode) {
  g_alloc_bytes = 0;
  g_count_allocs = true;
  decode(wire);
  g_count_allocs = false;
  EXPECT_LE(g_alloc_bytes, 64 * wire.size() + 1024)
      << "decode of " << wire.size() << " bytes allocated " << g_alloc_bytes;
}

TEST(DhcpFuzz, TruncatedAndFlippedMessagesDecodeBounded) {
  const auto decode = [](const Bytes& wire) { (void)DhcpMessage::parse(wire); };
  DhcpMessage ack;
  ack.is_request = false;
  ack.xid = 1;
  ack.chaddr = kMacB;
  ack.message_type = DhcpMessageType::Ack;
  ack.yiaddr = kIpA;
  ack.server_identifier = Ipv4Address{192, 168, 1, 1};
  ack.lease_time_secs = 3600;
  ack.subnet_mask = Ipv4Address{255, 255, 255, 0};
  ack.router = Ipv4Address{192, 168, 1, 1};
  ack.dns_servers = {Ipv4Address{192, 168, 1, 1}, Ipv4Address{8, 8, 8, 8}};
  ack.hostname = "media-server";
  for (const DhcpMessage& m :
       {DhcpMessage::discover(0xcafe, kMacA, "laptop"),
        DhcpMessage::request(0xcafe, kMacA, kIpA, Ipv4Address{192, 168, 1, 1}),
        DhcpMessage::release(5, kMacA, kIpA, Ipv4Address{192, 168, 1, 1}), ack}) {
    const Bytes wire = m.serialize();
    ASSERT_TRUE(DhcpMessage::parse(wire).ok());
    for_each_mutation(wire, [&](const Bytes& mutated) { decode_bounded(mutated, decode); });
  }
}

TEST(DnsFuzz, TruncatedAndFlippedMessagesDecodeBounded) {
  const auto decode = [](const Bytes& wire) { (void)DnsMessage::parse(wire); };
  auto response = DnsMessage::query(7, "a.example.com").make_response();
  response.answers.push_back(DnsRecord::a("a.example.com", kIpB, 60));
  response.answers.push_back(DnsRecord::cname("a.example.com", "b.example.com"));
  auto reverse = DnsMessage::query(9, DnsMessage::reverse_name(kIpB), DnsType::Ptr)
                     .make_response();
  reverse.answers.push_back(
      DnsRecord::ptr(reverse.questions[0].name, "server.example.com"));
  std::vector<Bytes> wires;
  for (const DnsMessage& m :
       {DnsMessage::query(0x1234, "www.example.com"), response, reverse}) {
    wires.push_back(m.serialize());
  }
  // A response whose answer name is a compression pointer to the question.
  ByteWriter w;
  for (const std::uint16_t field : {1, 0x8180, 1, 1, 0, 0}) w.u16(field);
  w.u8(7);
  w.raw("example", 7);
  w.u8(3);
  w.raw("com", 3);
  w.u8(0);
  w.u16(1);
  w.u16(1);
  w.u8(0xc0);
  w.u8(12);
  w.u16(1);
  w.u16(1);
  w.u32(5);
  w.u16(4);
  w.u32(kIpB.value());
  wires.push_back(w.bytes());
  for (const Bytes& wire : wires) {
    ASSERT_TRUE(DnsMessage::parse(wire).ok());
    for_each_mutation(wire, [&](const Bytes& mutated) { decode_bounded(mutated, decode); });
  }
}

}  // namespace
}  // namespace hw::net
