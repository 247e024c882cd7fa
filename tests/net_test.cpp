// Packet codec tests: every layer must round-trip through its wire format,
// since the router's modules parse exactly what hosts serialize.
#include <gtest/gtest.h>

#include "net/app_map.hpp"
#include "net/checksum.hpp"
#include "net/dhcp.hpp"
#include "net/dns.hpp"
#include "net/packet.hpp"
#include "util/rand.hpp"

namespace hw::net {
namespace {

const MacAddress kMacA = MacAddress::from_index(1);
const MacAddress kMacB = MacAddress::from_index(2);
const Ipv4Address kIpA{192, 168, 1, 100};
const Ipv4Address kIpB{10, 0, 0, 1};

// ---------------------------------------------------------------------------
// Checksums

TEST(Checksum, Rfc1071Example) {
  // Canonical example: checksum of this sequence is 0xddf2 (RFC 1071 §3).
  Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);  // ~0xddf2
}

TEST(Checksum, OddLength) {
  Bytes data{0x01, 0x02, 0x03};
  // Manual: 0x0102 + 0x0300 = 0x0402 → ~ = 0xfbfd
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(Checksum, Ipv4HeaderVerifies) {
  Ipv4Header h;
  h.src = kIpA;
  h.dst = kIpB;
  h.protocol = 17;
  ByteWriter w;
  h.serialize(w, 100);
  // A correct header checksums to zero over its own bytes.
  EXPECT_EQ(internet_checksum(w.bytes()), 0);
}

// ---------------------------------------------------------------------------
// Layer round-trips: each header is serialized into a whole frame and read
// back through ParsedPacket::parse, the one frame parser.

TEST(Ethernet, RoundTrip) {
  const Bytes frame = build_udp(kMacA, kMacB, kIpA, kIpB, 1, 2, {});
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().eth.dst, kMacB);
  EXPECT_EQ(p.value().eth.src, kMacA);
  EXPECT_EQ(p.value().eth.type(), EtherType::Ipv4);
  EXPECT_EQ(p.value().frame_size, frame.size());
}

TEST(Arp, RoundTrip) {
  ArpMessage m;
  m.op = ArpOp::Reply;
  m.sender_mac = kMacA;
  m.sender_ip = kIpA;
  m.target_mac = kMacB;
  m.target_ip = kIpB;
  auto parsed = ParsedPacket::parse(build_arp(m));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().arp.has_value());
  const ArpMessage& arp = *parsed.value().arp;
  EXPECT_EQ(arp.op, ArpOp::Reply);
  EXPECT_EQ(arp.sender_mac, kMacA);
  EXPECT_EQ(arp.sender_ip, kIpA);
  EXPECT_EQ(arp.target_mac, kMacB);
  EXPECT_EQ(arp.target_ip, kIpB);
}

TEST(Arp, RejectsNonEthernetIpv4) {
  ByteWriter w;
  w.u16(2);  // wrong hardware type
  w.u16(0x0800);
  w.u8(6);
  w.u8(4);
  w.u16(1);
  w.zeros(20);
  EXPECT_FALSE(
      ParsedPacket::parse(build_ethernet(kMacA, kMacB, EtherType::Arp, w.bytes()))
          .ok());
}

TEST(Ipv4, RoundTrip) {
  Ipv4Header h;
  h.src = kIpA;
  h.dst = kIpB;
  h.ttl = 7;
  h.protocol = 6;
  h.dscp = 0x20;
  h.identification = 0xbeef;
  ByteWriter w;
  h.serialize(w, 42);
  TcpHeader{}.serialize(w);
  w.zeros(42 - kTcpMinHeaderSize);
  auto parsed =
      ParsedPacket::parse(build_ethernet(kMacA, kMacB, EtherType::Ipv4, w.bytes()));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().ip.has_value());
  const Ipv4Header& ip = *parsed.value().ip;
  EXPECT_EQ(ip.src, kIpA);
  EXPECT_EQ(ip.dst, kIpB);
  EXPECT_EQ(ip.ttl, 7);
  EXPECT_EQ(ip.protocol, 6);
  EXPECT_EQ(ip.dscp, 0x20);
  EXPECT_EQ(ip.identification, 0xbeef);
  EXPECT_EQ(ip.total_length, kIpv4MinHeaderSize + 42);
}

TEST(Ipv4, RejectsBadVersion) {
  ByteWriter w;
  w.u8(0x55);  // version 5
  w.zeros(19);
  EXPECT_FALSE(
      ParsedPacket::parse(build_ethernet(kMacA, kMacB, EtherType::Ipv4, w.bytes()))
          .ok());
}

// The IPv4 header checksum is not verified on parse: an OpenFlow 1.0 switch
// matches and forwards such a frame like any other.
TEST(Ipv4, WrongChecksumStillParses) {
  Bytes frame = build_udp(kMacA, kMacB, kIpA, kIpB, 5353, 53, Bytes(10, 7));
  frame[kEthernetHeaderSize + 10] ^= 0x5a;
  ASSERT_NE(internet_checksum(std::span(frame).subspan(kEthernetHeaderSize,
                                                       kIpv4MinHeaderSize)),
            0);
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p.value().udp.has_value());
  EXPECT_EQ(p.value().ip->src, kIpA);
  EXPECT_EQ(p.value().udp->dst_port, 53);
  EXPECT_EQ(p.value().l4_payload.size(), 10u);
}

TEST(Udp, RoundTrip) {
  auto parsed =
      ParsedPacket::parse(build_udp(kMacA, kMacB, kIpA, kIpB, 5353, 53, Bytes(10, 1)));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().udp.has_value());
  EXPECT_EQ(parsed.value().udp->src_port, 5353);
  EXPECT_EQ(parsed.value().udp->dst_port, 53);
  EXPECT_EQ(parsed.value().udp->length, kUdpHeaderSize + 10);
}

TEST(Tcp, RoundTripWithFlags) {
  TcpHeader h;
  h.src_port = 40000;
  h.dst_port = 443;
  h.seq = 12345;
  h.ack = 67890;
  h.window = 1024;
  h.flags = TcpFlags::kSyn | TcpFlags::kAck;
  auto parsed = ParsedPacket::parse(build_tcp(kMacA, kMacB, kIpA, kIpB, h, {}));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().tcp.has_value());
  const TcpHeader& tcp = *parsed.value().tcp;
  EXPECT_TRUE(tcp.syn());
  EXPECT_TRUE(tcp.ack_set());
  EXPECT_FALSE(tcp.fin());
  EXPECT_EQ(tcp.src_port, 40000);
  EXPECT_EQ(tcp.dst_port, 443);
  EXPECT_EQ(tcp.seq, 12345u);
  EXPECT_EQ(tcp.ack, 67890u);
  EXPECT_EQ(tcp.window, 1024);
}

TEST(Icmp, RoundTrip) {
  auto parsed = ParsedPacket::parse(
      build_icmp_echo(kMacA, kMacB, kIpA, kIpB, IcmpType::EchoRequest, 77, 3));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed.value().icmp.has_value());
  EXPECT_EQ(parsed.value().icmp->type, IcmpType::EchoRequest);
  EXPECT_EQ(parsed.value().icmp->identifier, 77);
  EXPECT_EQ(parsed.value().icmp->sequence, 3);
}

// ---------------------------------------------------------------------------
// DNS codec

TEST(Dns, QueryRoundTrip) {
  auto q = DnsMessage::query(0x1234, "WWW.Example.COM");
  const Bytes wire = q.serialize();
  auto parsed = DnsMessage::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 0x1234);
  EXPECT_FALSE(parsed.value().is_response);
  ASSERT_EQ(parsed.value().questions.size(), 1u);
  EXPECT_EQ(parsed.value().questions[0].name, "www.example.com");  // lowered
  EXPECT_EQ(parsed.value().questions[0].qtype, DnsType::A);
}

TEST(Dns, ResponseWithAnswersRoundTrip) {
  auto q = DnsMessage::query(7, "a.example.com");
  auto resp = q.make_response();
  resp.answers.push_back(DnsRecord::a("a.example.com", kIpB, 60));
  resp.answers.push_back(DnsRecord::cname("a.example.com", "b.example.com"));
  const Bytes wire = resp.serialize();
  auto parsed = DnsMessage::parse(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().is_response);
  ASSERT_EQ(parsed.value().answers.size(), 2u);
  EXPECT_EQ(parsed.value().answers[0].address, kIpB);
  EXPECT_EQ(parsed.value().answers[0].ttl, 60u);
  EXPECT_EQ(parsed.value().answers[1].target, "b.example.com");
}

TEST(Dns, PtrRoundTripAndReverseName) {
  EXPECT_EQ(DnsMessage::reverse_name(Ipv4Address{192, 0, 2, 1}),
            "1.2.0.192.in-addr.arpa");
  auto q = DnsMessage::query(9, DnsMessage::reverse_name(kIpB), DnsType::Ptr);
  auto resp = q.make_response();
  resp.answers.push_back(
      DnsRecord::ptr(q.questions[0].name, "server.example.com"));
  auto parsed = DnsMessage::parse(resp.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().answers[0].target, "server.example.com");
}

TEST(Dns, CompressedNamesParse) {
  // Hand-built response with a compression pointer: answer name points back
  // to the question name at offset 12.
  ByteWriter w;
  w.u16(1);       // id
  w.u16(0x8180);  // response, RD, RA
  w.u16(1);       // qd
  w.u16(1);       // an
  w.u16(0);
  w.u16(0);
  // question: example.com A IN
  w.u8(7);
  w.raw("example", 7);
  w.u8(3);
  w.raw("com", 3);
  w.u8(0);
  w.u16(1);
  w.u16(1);
  // answer: pointer to offset 12, A IN ttl=5 rdata 10.0.0.1
  w.u8(0xc0);
  w.u8(12);
  w.u16(1);
  w.u16(1);
  w.u32(5);
  w.u16(4);
  w.u32(Ipv4Address{10, 0, 0, 1}.value());

  auto parsed = DnsMessage::parse(w.bytes());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().answers.size(), 1u);
  EXPECT_EQ(parsed.value().answers[0].name, "example.com");
  EXPECT_EQ(parsed.value().answers[0].address, (Ipv4Address{10, 0, 0, 1}));
}

TEST(Dns, PointerLoopRejected) {
  ByteWriter w;
  w.u16(1);
  w.u16(0);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  w.u8(0xc0);  // name: pointer to itself
  w.u8(12);
  w.u16(1);
  w.u16(1);
  EXPECT_FALSE(DnsMessage::parse(w.bytes()).ok());
}

TEST(Dns, TruncatedRejected) {
  auto q = DnsMessage::query(1, "x.test");
  Bytes wire = q.serialize();
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(DnsMessage::parse(wire).ok());
}

TEST(Dns, ImplausibleCountsRejected) {
  ByteWriter w;
  w.u16(1);
  w.u16(0);
  w.u16(40000);  // 40k questions
  w.u16(0);
  w.u16(0);
  w.u16(0);
  EXPECT_FALSE(DnsMessage::parse(w.bytes()).ok());
}

// ---------------------------------------------------------------------------
// DHCP codec

TEST(Dhcp, DiscoverRoundTrip) {
  auto m = DhcpMessage::discover(0xcafe, kMacA, "toms-laptop");
  auto parsed = DhcpMessage::parse(m.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().message_type, DhcpMessageType::Discover);
  EXPECT_EQ(parsed.value().xid, 0xcafeu);
  EXPECT_EQ(parsed.value().chaddr, kMacA);
  EXPECT_EQ(parsed.value().hostname, "toms-laptop");
  EXPECT_TRUE(parsed.value().is_request);
  EXPECT_TRUE(parsed.value().broadcast_flag);
}

TEST(Dhcp, AckWithOptionsRoundTrip) {
  DhcpMessage m;
  m.is_request = false;
  m.xid = 1;
  m.chaddr = kMacB;
  m.message_type = DhcpMessageType::Ack;
  m.yiaddr = kIpA;
  m.server_identifier = Ipv4Address{192, 168, 1, 1};
  m.lease_time_secs = 3600;
  m.subnet_mask = Ipv4Address{0xffffffffu};
  m.router = Ipv4Address{192, 168, 1, 1};
  m.dns_servers = {Ipv4Address{192, 168, 1, 1}, Ipv4Address{8, 8, 8, 8}};
  auto parsed = DhcpMessage::parse(m.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().message_type, DhcpMessageType::Ack);
  EXPECT_EQ(parsed.value().yiaddr, kIpA);
  EXPECT_EQ(parsed.value().subnet_mask->to_string(), "255.255.255.255");
  ASSERT_EQ(parsed.value().dns_servers.size(), 2u);
  EXPECT_EQ(parsed.value().dns_servers[1], (Ipv4Address{8, 8, 8, 8}));
  EXPECT_EQ(*parsed.value().lease_time_secs, 3600u);
}

TEST(Dhcp, MissingMessageTypeRejected) {
  auto m = DhcpMessage::discover(5, kMacA);
  Bytes wire = m.serialize();
  // Overwrite the message-type option (code 53 right after the cookie at 240).
  ASSERT_EQ(wire[240], 53);
  wire[240] = 0;  // pad
  wire[241] = 0;
  wire[242] = 0;
  EXPECT_FALSE(DhcpMessage::parse(wire).ok());
}

TEST(Dhcp, BadCookieRejected) {
  auto m = DhcpMessage::discover(5, kMacA);
  Bytes wire = m.serialize();
  wire[236] = 0;  // clobber magic cookie
  EXPECT_FALSE(DhcpMessage::parse(wire).ok());
}

TEST(Dhcp, TruncatedRejected) {
  auto m = DhcpMessage::discover(5, kMacA);
  Bytes wire = m.serialize();
  wire.resize(200);
  EXPECT_FALSE(DhcpMessage::parse(wire).ok());
}

// ---------------------------------------------------------------------------
// Whole-frame construction / dissection

TEST(Packet, UdpFrameDissects) {
  Bytes payload(32, 0x55);
  const Bytes frame = build_udp(kMacA, kMacB, kIpA, kIpB, 1111, 2222, payload);
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().eth.src, kMacA);
  ASSERT_TRUE(p.value().ip.has_value());
  ASSERT_TRUE(p.value().udp.has_value());
  EXPECT_EQ(p.value().udp->src_port, 1111);
  EXPECT_EQ(p.value().l4_payload.size(), 32u);
  auto tuple = p.value().five_tuple();
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->protocol, 17);
  EXPECT_EQ(tuple->dst_port, 2222);
  EXPECT_EQ(tuple->reversed().src_port, 2222);
}

TEST(Packet, L4PayloadIsViewIntoFrame) {
  const Bytes frame = build_udp(kMacA, kMacB, kIpA, kIpB, 1111, 2222, Bytes(32, 0x55));
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  const std::span<const std::uint8_t> payload = p.value().l4_payload;
  ASSERT_EQ(payload.size(), 32u);
  // Not a copy: the payload's bytes are the frame's own last 32 bytes.
  EXPECT_GE(payload.data(), frame.data());
  EXPECT_EQ(payload.data() + payload.size(), frame.data() + frame.size());
}

TEST(Checksum, IncrementalAdjustMatchesRecomputation) {
  Rng rng(1624);
  for (int i = 0; i < 2000; ++i) {
    Ipv4Header h;
    h.dscp = static_cast<std::uint8_t>(rng.next());
    h.identification = static_cast<std::uint16_t>(rng.next());
    h.ttl = static_cast<std::uint8_t>(rng.next());
    h.protocol = static_cast<std::uint8_t>(rng.next());
    h.src = Ipv4Address{static_cast<std::uint32_t>(rng.next())};
    h.dst = Ipv4Address{static_cast<std::uint32_t>(rng.next())};
    ByteWriter before;
    h.serialize(before, rng.uniform(1400));
    const Ipv4Address old_dst = h.dst;
    h.dst = Ipv4Address{static_cast<std::uint32_t>(rng.next())};
    h.total_length = static_cast<std::uint16_t>(
        (before.bytes()[2] << 8) | before.bytes()[3]);
    ByteWriter after;
    h.serialize(after, 0);
    const auto sum_of = [](const Bytes& b) {
      return static_cast<std::uint16_t>((b[10] << 8) | b[11]);
    };
    EXPECT_EQ(checksum_adjust(sum_of(before.bytes()), old_dst.value(), h.dst.value()),
              sum_of(after.bytes()));
  }
}

TEST(Packet, TcpFrameDissects) {
  TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 80;
  tcp.flags = TcpFlags::kPsh | TcpFlags::kAck;
  const Bytes frame = build_tcp(kMacA, kMacB, kIpA, kIpB, tcp, Bytes(10, 1));
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p.value().tcp.has_value());
  EXPECT_EQ(p.value().l4_payload.size(), 10u);
  EXPECT_FALSE(p.value().is_dns());
  EXPECT_FALSE(p.value().is_dhcp());
}

TEST(Packet, DhcpAndDnsClassifiers) {
  const Bytes dhcp_frame =
      build_dhcp_frame(kMacA, MacAddress::broadcast(), Ipv4Address::any(),
                       Ipv4Address::broadcast(), true,
                       DhcpMessage::discover(1, kMacA).serialize());
  auto p = ParsedPacket::parse(dhcp_frame);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value().is_dhcp());

  const Bytes dns_frame = build_udp(kMacA, kMacB, kIpA, kIpB, 5000, 53,
                                    DnsMessage::query(1, "x.com").serialize());
  auto d = ParsedPacket::parse(dns_frame);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.value().is_dns());
}

TEST(Packet, ArpFrameDissects) {
  ArpMessage arp;
  arp.op = ArpOp::Request;
  arp.sender_mac = kMacA;
  arp.sender_ip = kIpA;
  arp.target_ip = kIpB;
  auto p = ParsedPacket::parse(build_arp(arp));
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p.value().arp.has_value());
  EXPECT_TRUE(p.value().eth.dst.is_broadcast());
  EXPECT_FALSE(p.value().five_tuple().has_value());
}

TEST(Packet, GarbageRejected) {
  Bytes garbage{1, 2, 3};
  EXPECT_FALSE(ParsedPacket::parse(garbage).ok());
}

TEST(Packet, UnknownEtherTypeKeepsEthernetOnly) {
  const Bytes frame = build_ethernet(kMacA, kMacB, static_cast<EtherType>(0x88cc),
                                     Bytes{1, 2, 3});
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p.value().ip.has_value());
  EXPECT_FALSE(p.value().arp.has_value());
}

// Property-style sweep: UDP frames round-trip for many port/size combos.
class UdpRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UdpRoundTrip, FiveTupleSurvives) {
  const auto [port, size] = GetParam();
  const Bytes frame =
      build_udp(kMacA, kMacB, kIpA, kIpB, static_cast<std::uint16_t>(port),
                static_cast<std::uint16_t>(65535 - port),
                Bytes(static_cast<std::size_t>(size), 0x7e));
  auto p = ParsedPacket::parse(frame);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().udp->src_port, port);
  EXPECT_EQ(p.value().udp->dst_port, 65535 - port);
  EXPECT_EQ(p.value().l4_payload.size(), static_cast<std::size_t>(size));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UdpRoundTrip,
    ::testing::Combine(::testing::Values(1, 53, 80, 5060, 32000, 65534),
                       ::testing::Values(0, 1, 64, 512, 1400)));

// ---------------------------------------------------------------------------
// Application mapping ("imperfect application–protocol mapping")

TEST(AppMap, KnownPorts) {
  auto t = [](std::uint8_t proto, std::uint16_t sport, std::uint16_t dport) {
    FiveTuple tuple;
    tuple.protocol = proto;
    tuple.src_port = sport;
    tuple.dst_port = dport;
    return classify_app(tuple);
  };
  EXPECT_EQ(t(6, 40000, 80), AppProtocol::Web);
  EXPECT_EQ(t(6, 443, 40000), AppProtocol::WebSecure);  // either direction
  EXPECT_EQ(t(17, 5000, 53), AppProtocol::Dns);
  EXPECT_EQ(t(17, 68, 67), AppProtocol::Dhcp);
  EXPECT_EQ(t(6, 40000, 993), AppProtocol::Email);
  EXPECT_EQ(t(6, 40000, 1935), AppProtocol::Streaming);
  EXPECT_EQ(t(17, 40000, 5060), AppProtocol::VoIP);
  EXPECT_EQ(t(17, 40000, 3074), AppProtocol::Gaming);
  EXPECT_EQ(t(6, 40000, 6881), AppProtocol::FileShare);
  EXPECT_EQ(t(1, 0, 0), AppProtocol::Icmp);
  EXPECT_EQ(t(6, 40000, 12345), AppProtocol::Other);
}

TEST(AppMap, NamesAreStable) {
  EXPECT_EQ(app_protocol_name(AppProtocol::Web), "web");
  EXPECT_EQ(app_protocol_name(AppProtocol::WebSecure), "web-tls");
  EXPECT_EQ(app_protocol_name(AppProtocol::Streaming), "streaming");
  EXPECT_EQ(app_protocol_name(AppProtocol::Other), "other");
}

}  // namespace
}  // namespace hw::net
