// The simulated ISP cloud: authoritative DNS (A/PTR), TCP endpoint
// behaviour (handshake, download serving, FIN), ICMP — plus RPC-link loss
// tolerance for the hwdb transports.
#include <gtest/gtest.h>

#include "homework/upstream.hpp"
#include "hwdb/udp_transport.hpp"
#include "net/dns.hpp"

namespace hw::homework {
namespace {

class Collector final : public sim::FrameSink {
 public:
  void deliver(const Bytes& frame) override { frames.push_back(frame); }
  std::vector<net::ParsedPacket> parsed() const {
    std::vector<net::ParsedPacket> out;
    for (const auto& f : frames) {
      auto p = net::ParsedPacket::parse(f);
      if (p.ok()) out.push_back(std::move(p).take());
    }
    return out;
  }
  std::vector<Bytes> frames;
};

struct UpstreamFixture : ::testing::Test {
  UpstreamFixture() : up(loop, {}) {
    up.connect(&router_side);
    up.add_zone_entry("www.example.com", Ipv4Address{93, 184, 216, 34});
  }

  Bytes dns_query(const std::string& name, net::DnsType type,
                  std::uint16_t id = 7) {
    return net::build_udp(MacAddress::from_index(1), MacAddress::from_index(2),
                          Ipv4Address{192, 168, 1, 100},
                          Ipv4Address{8, 8, 8, 8}, 5000, 53,
                          net::DnsMessage::query(id, name, type).serialize());
  }

  sim::EventLoop loop;
  Collector router_side;
  Upstream up;
};

TEST_F(UpstreamFixture, AuthoritativeARecord) {
  up.deliver(dns_query("WWW.Example.COM", net::DnsType::A));
  loop.run_all();
  auto packets = router_side.parsed();
  ASSERT_EQ(packets.size(), 1u);
  auto resp = net::DnsMessage::parse(packets[0].l4_payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp.value().authoritative);
  ASSERT_EQ(resp.value().answers.size(), 1u);
  EXPECT_EQ(resp.value().answers[0].address.to_string(), "93.184.216.34");
  // Reply addressed back to the querying socket.
  EXPECT_EQ(packets[0].udp->dst_port, 5000);
  EXPECT_EQ(packets[0].ip->dst.to_string(), "192.168.1.100");
}

TEST_F(UpstreamFixture, NxdomainForUnknown) {
  up.deliver(dns_query("nope.invalid", net::DnsType::A));
  loop.run_all();
  auto resp = net::DnsMessage::parse(router_side.parsed()[0].l4_payload);
  EXPECT_EQ(resp.value().rcode, net::DnsRcode::NxDomain);
  EXPECT_EQ(up.stats().dns_nxdomain.value(), 1u);
}

TEST_F(UpstreamFixture, PtrFromReverseZone) {
  const std::string reverse =
      net::DnsMessage::reverse_name(Ipv4Address{93, 184, 216, 34});
  up.deliver(dns_query(reverse, net::DnsType::Ptr));
  loop.run_all();
  auto resp = net::DnsMessage::parse(router_side.parsed()[0].l4_payload);
  ASSERT_EQ(resp.value().answers.size(), 1u);
  EXPECT_EQ(resp.value().answers[0].target, "www.example.com");
}

TEST_F(UpstreamFixture, PtrUnknownAddressNxdomain) {
  up.deliver(dns_query("9.9.9.9.in-addr.arpa", net::DnsType::Ptr));
  loop.run_all();
  auto resp = net::DnsMessage::parse(router_side.parsed()[0].l4_payload);
  EXPECT_EQ(resp.value().rcode, net::DnsRcode::NxDomain);
}

TEST_F(UpstreamFixture, ResponsesArriveAfterRtt) {
  up.deliver(dns_query("www.example.com", net::DnsType::A));
  loop.run_until(19 * kMillisecond);  // default rtt is 20 ms
  EXPECT_TRUE(router_side.frames.empty());
  loop.run_until(21 * kMillisecond);
  EXPECT_EQ(router_side.frames.size(), 1u);
}

TEST_F(UpstreamFixture, TcpHandshakeAndDownload) {
  auto send_tcp = [&](std::uint8_t flags, std::size_t payload, std::uint32_t seq) {
    net::TcpHeader tcp;
    tcp.src_port = 44000;
    tcp.dst_port = 80;
    tcp.seq = seq;
    tcp.flags = flags;
    up.deliver(net::build_tcp(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address{192, 168, 1, 100},
                              Ipv4Address{93, 184, 216, 34}, tcp,
                              Bytes(payload, 0x42)));
    loop.run_all();
  };

  send_tcp(net::TcpFlags::kSyn, 0, 100);
  auto packets = router_side.parsed();
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].tcp->syn());
  EXPECT_TRUE(packets[0].tcp->ack_set());
  EXPECT_EQ(packets[0].tcp->ack, 101u);

  // A data segment to port 80 triggers a served download split into MTU
  // chunks (default: 12000 bytes at 1400/segment → 9 segments).
  router_side.frames.clear();
  send_tcp(net::TcpFlags::kAck | net::TcpFlags::kPsh, 300, 101);
  packets = router_side.parsed();
  ASSERT_GE(packets.size(), 9u);
  std::size_t served = 0;
  for (const auto& p : packets) served += p.l4_payload.size();
  EXPECT_EQ(served, 12000u);
  EXPECT_EQ(up.stats().bytes_served.value(), 12000u);

  // FIN gets FIN-ACK'd.
  router_side.frames.clear();
  send_tcp(net::TcpFlags::kFin, 0, 401);
  packets = router_side.parsed();
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].tcp->fin());
}

TEST_F(UpstreamFixture, UnknownPortDataJustAcked) {
  net::TcpHeader tcp;
  tcp.src_port = 44000;
  tcp.dst_port = 12345;  // no download profile
  tcp.seq = 1;
  tcp.flags = net::TcpFlags::kAck | net::TcpFlags::kPsh;
  up.deliver(net::build_tcp(MacAddress::from_index(1), MacAddress::from_index(2),
                            Ipv4Address{192, 168, 1, 100},
                            Ipv4Address{1, 2, 3, 4}, tcp, Bytes(100, 0)));
  loop.run_all();
  auto packets = router_side.parsed();
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_TRUE(packets[0].l4_payload.empty());  // bare ACK
  EXPECT_EQ(up.stats().bytes_served.value(), 0u);
}

TEST_F(UpstreamFixture, PingAnyAddress) {
  up.deliver(net::build_icmp_echo(MacAddress::from_index(1),
                                  MacAddress::from_index(2),
                                  Ipv4Address{192, 168, 1, 100},
                                  Ipv4Address{203, 0, 113, 77},
                                  net::IcmpType::EchoRequest, 9, 3));
  loop.run_all();
  auto packets = router_side.parsed();
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].icmp->type, net::IcmpType::EchoReply);
  EXPECT_EQ(packets[0].icmp->sequence, 3);
  EXPECT_EQ(packets[0].ip->src.to_string(), "203.0.113.77");
}

TEST_F(UpstreamFixture, GarbageIgnored) {
  up.deliver(Bytes{1, 2, 3});
  up.deliver(Bytes{});
  loop.run_all();
  EXPECT_TRUE(router_side.frames.empty());
}

// ---------------------------------------------------------------------------
// RPC link loss tolerance (UDP gives no delivery guarantees)

TEST(RpcLinkLoss, LostDatagramsDegradeGracefully) {
  sim::EventLoop loop;
  Rng rng(5);
  hwdb::Database db(loop);
  ASSERT_TRUE(db.create_table(hwdb::Schema("T", {{"v", hwdb::ColumnType::Int}}),
                              64)
                  .ok());
  hwdb::rpc::InProcRpcLink::Config config;
  config.loss_probability = 0.3;
  hwdb::rpc::InProcRpcLink link(loop, db, config, &rng);
  auto& client = link.make_client();

  int acked = 0;
  for (int i = 0; i < 100; ++i) {
    client.insert("T", {hwdb::Value{i}},
                  [&](const hwdb::rpc::Response& resp) {
                    if (resp.ok) ++acked;
                  });
  }
  loop.run_for(kSecond);
  // With 30% loss each way, roughly half the acks arrive; the server stored
  // roughly 70% of inserts. Nothing crashes, pending callbacks just linger.
  EXPECT_GT(acked, 20);
  EXPECT_LT(acked, 90);
  EXPECT_GT(db.table("T")->inserted(), 40u);
  EXPECT_GT(client.pending(), 0u);  // un-acked requests remain pending
}

}  // namespace
}  // namespace hw::homework
