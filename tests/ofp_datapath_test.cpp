// Datapath behaviour: port plumbing, flow-directed forwarding with header
// rewrites, packet-in buffering and release, NORMAL (learning switch), the
// controller-side protocol handlers, and timeout notifications — all through
// the real secure-channel byte stream.
#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "openflow/stream_channel.hpp"
#include "openflow/datapath.hpp"
#include "util/rand.hpp"

namespace hw::ofp {
namespace {

const MacAddress kHostA = MacAddress::from_index(1);
const MacAddress kHostB = MacAddress::from_index(2);
const Ipv4Address kIpA{192, 168, 1, 100};
const Ipv4Address kIpB{10, 1, 1, 1};

class Collector final : public sim::FrameSink {
 public:
  void deliver(const Bytes& frame) override { frames.push_back(frame); }
  std::vector<Bytes> frames;
};

/// Test harness playing the controller role over a real channel.
class FakeController {
 public:
  explicit FakeController(ChannelEndpoint& end) : end_(end) {
    end_.on_receive([this](const Bytes& encoded) {
      // The channel's frame lives for one dispatch and a decoded PacketIn
      // views it: keep a copy for the envelope to view instead.
      const Bytes& kept = frames_.emplace_back(encoded);
      auto env = decode(kept);
      ASSERT_TRUE(env.ok());
      received.push_back(std::move(env).take());
    });
  }

  void send(Message msg, std::uint32_t xid = 1) {
    end_.send(encode({xid, std::move(msg)}));
  }

  template <typename T>
  std::vector<const T*> of_type() const {
    std::vector<const T*> out;
    for (const auto& env : received) {
      if (const auto* m = std::get_if<T>(&env.msg)) out.push_back(m);
    }
    return out;
  }

  std::vector<Envelope> received;

 private:
  ChannelEndpoint& end_;
  std::deque<Bytes> frames_;  // what received's envelopes view
};

struct DatapathFixture : ::testing::Test {
  DatapathFixture()
      : dp(loop, {.datapath_id = 0xd0, .n_buffers = 4, .miss_send_len = 128}),
        conn(loop),
        controller(conn.controller_end()) {
    dp.add_port(1, "p1", MacAddress::from_index(0xa1), &port1_out);
    dp.add_port(2, "p2", MacAddress::from_index(0xa2), &port2_out);
    dp.connect(conn.datapath_end());
    loop.run_for(kMillisecond);
  }

  Bytes udp_frame(MacAddress src_mac, Ipv4Address src, Ipv4Address dst,
                  std::uint16_t dport, std::size_t payload = 32) const {
    return net::build_udp(src_mac, kHostB, src, dst, 1234, dport,
                          Bytes(payload, 0));
  }

  sim::EventLoop loop;
  Collector port1_out;
  Collector port2_out;
  Datapath dp;
  StreamConnection conn;
  FakeController controller;
};

TEST_F(DatapathFixture, SendsHelloOnConnect) {
  ASSERT_FALSE(controller.of_type<Hello>().empty());
}

TEST_F(DatapathFixture, FeaturesHandshake) {
  controller.send(FeaturesRequest{}, 55);
  loop.run_for(kMillisecond);
  auto replies = controller.of_type<FeaturesReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0]->datapath_id, 0xd0u);
  EXPECT_EQ(replies[0]->ports.size(), 2u);
  // xid echoes the request.
  EXPECT_EQ(controller.received.back().xid, 55u);
}

TEST_F(DatapathFixture, EchoAndBarrier) {
  controller.send(EchoRequest{{1, 2}}, 9);
  controller.send(BarrierRequest{}, 10);
  loop.run_for(kMillisecond);
  auto echoes = controller.of_type<EchoReply>();
  ASSERT_EQ(echoes.size(), 1u);
  EXPECT_EQ(echoes[0]->data, (Bytes{1, 2}));
  EXPECT_EQ(controller.of_type<BarrierReply>().size(), 1u);
}

TEST_F(DatapathFixture, MissGeneratesBufferedPacketIn) {
  const Bytes frame = udp_frame(kHostA, kIpA, kIpB, 80, 300);
  dp.receive_frame(1, frame);
  loop.run_for(kMillisecond);
  auto pis = controller.of_type<PacketIn>();
  ASSERT_EQ(pis.size(), 1u);
  EXPECT_EQ(pis[0]->in_port, 1);
  EXPECT_EQ(pis[0]->reason, PacketInReason::NoMatch);
  EXPECT_NE(pis[0]->buffer_id, kNoBuffer);
  EXPECT_EQ(pis[0]->total_len, frame.size());
  EXPECT_EQ(pis[0]->data.size(), 128u);  // truncated to miss_send_len
}

TEST_F(DatapathFixture, PacketOutReleasesBufferedFrame) {
  const Bytes frame = udp_frame(kHostA, kIpA, kIpB, 80);
  dp.receive_frame(1, frame);
  loop.run_for(kMillisecond);
  const auto buffer_id = controller.of_type<PacketIn>()[0]->buffer_id;

  PacketOut po;
  po.buffer_id = buffer_id;
  po.in_port = 1;
  po.actions = output_to(2);
  controller.send(std::move(po));
  loop.run_for(kMillisecond);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  EXPECT_EQ(port2_out.frames[0], frame);  // full frame, not the truncation
}

TEST_F(DatapathFixture, PacketOutUnknownBufferErrors) {
  PacketOut po;
  po.buffer_id = 424242;
  po.actions = output_to(2);
  controller.send(std::move(po), 31);
  loop.run_for(kMillisecond);
  auto errors = controller.of_type<ErrorMsg>();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0]->type, ErrorType::BadRequest);
}

TEST_F(DatapathFixture, FlowModWithBufferForwardsAndInstalls) {
  const Bytes frame = udp_frame(kHostA, kIpA, kIpB, 80);
  dp.receive_frame(1, frame);
  loop.run_for(kMillisecond);
  const auto buffer_id = controller.of_type<PacketIn>()[0]->buffer_id;

  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.buffer_id = buffer_id;
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  EXPECT_EQ(dp.table().size(), 1u);
  ASSERT_EQ(port2_out.frames.size(), 1u);  // buffered frame released

  // Subsequent traffic forwards in the datapath, no controller round-trip.
  const std::size_t pis_before = controller.of_type<PacketIn>().size();
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 443));
  loop.run_for(kMillisecond);
  EXPECT_EQ(port2_out.frames.size(), 2u);
  EXPECT_EQ(controller.of_type<PacketIn>().size(), pis_before);
}

TEST_F(DatapathFixture, HeaderRewriteActions) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = {ActionSetDlSrc{MacAddress::from_index(0xbb)},
                 ActionSetDlDst{MacAddress::from_index(0xcc)},
                 ActionSetNwDst{Ipv4Address{99, 99, 99, 99}},
                 ActionSetTpDst{8080},
                 ActionOutput{2, 0}};
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  loop.run_for(kMillisecond);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  auto p = net::ParsedPacket::parse(port2_out.frames[0]);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().eth.src, MacAddress::from_index(0xbb));
  EXPECT_EQ(p.value().eth.dst, MacAddress::from_index(0xcc));
  EXPECT_EQ(p.value().ip->dst.to_string(), "99.99.99.99");
  EXPECT_EQ(p.value().udp->dst_port, 8080);
  // The rewritten IPv4 header must still checksum correctly.
  const std::size_t ip_off = net::kEthernetHeaderSize;
  std::span<const std::uint8_t> ip_hdr(port2_out.frames[0].data() + ip_off, 20);
  EXPECT_EQ(net::internet_checksum(ip_hdr), 0);
}

/// An IPv4 frame with a 4-byte IP option and a 4-byte TCP option (MSS),
/// a non-zero TCP checksum and urgent pointer: fields the simulator's own
/// builders never produce, so a rewrite that rebuilds the frame from its
/// parsed layers cannot reproduce them.
Bytes tcp_frame_with_options() {
  ByteWriter w;
  net::EthernetHeader{kHostB, kHostA, 0x0800}.serialize(w);
  const std::size_t ip = w.size();
  const Bytes payload(24, 0x5a);
  w.u8(0x46);  // version 4, IHL 6
  w.u8(0x10);
  w.u16(static_cast<std::uint16_t>(24 + 24 + payload.size()));
  w.u16(0x1234);
  w.u16(0x0000);  // no DF: the builders always set it
  w.u8(61);
  w.u8(6);
  w.u16(0);  // checksum, patched below
  w.u32(kIpA.value());
  w.u32(kIpB.value());
  w.raw(Bytes{0x01, 0x01, 0x01, 0x00});  // NOP NOP NOP EOL
  w.u16(40000);
  w.u16(443);
  w.u32(0xdeadbeef);
  w.u32(0x01020304);
  w.u16(static_cast<std::uint16_t>((6u << 12) | 0x18));  // data offset 6, PSH|ACK
  w.u16(4096);
  w.u16(0xbeef);  // checksum
  w.u16(7);       // urgent pointer
  w.raw(Bytes{0x02, 0x04, 0x05, 0xb4});  // MSS 1460
  w.raw(payload);
  Bytes frame = std::move(w).take();
  const std::uint16_t sum =
      net::internet_checksum(std::span(frame).subspan(ip, 24));
  frame[ip + 10] = static_cast<std::uint8_t>(sum >> 8);
  frame[ip + 11] = static_cast<std::uint8_t>(sum);
  return frame;
}

/// Expects `out` to equal `in` except at the listed [offset, offset+len)
/// ranges.
void expect_same_outside(const Bytes& in, const Bytes& out,
                         std::vector<std::pair<std::size_t, std::size_t>> changed) {
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    bool rewritten = false;
    for (const auto& [at, len] : changed) rewritten |= i >= at && i < at + len;
    if (!rewritten) {
      EXPECT_EQ(out[i], in[i]) << "byte " << i;
    }
  }
}

void install_any(DatapathFixture& f, ActionList actions) {
  FlowMod mod;
  mod.match = Match::any();
  mod.actions = std::move(actions);
  f.controller.send(std::move(mod));
  f.loop.run_for(kMillisecond);
}

TEST_F(DatapathFixture, MacRewriteAppliesToUnmodelledEthertype) {
  install_any(*this, {ActionSetDlSrc{MacAddress::from_index(0xbb)},
                      ActionSetDlDst{MacAddress::from_index(0xcc)},
                      ActionOutput{2, 0}});
  const Bytes lldp = net::build_ethernet(kHostA, MacAddress::from_index(0xdd),
                                         static_cast<net::EtherType>(0x88cc),
                                         Bytes{1, 2, 3, 4, 5, 6, 7, 8});
  dp.receive_frame(1, lldp);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  const Bytes& out = port2_out.frames[0];
  auto p = net::ParsedPacket::parse(out);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().eth.dst, MacAddress::from_index(0xcc));
  EXPECT_EQ(p.value().eth.src, MacAddress::from_index(0xbb));
  expect_same_outside(lldp, out, {{0, 12}});
}

TEST_F(DatapathFixture, MacRewriteKeepsIpAndTcpOptions) {
  install_any(*this, {ActionSetDlSrc{MacAddress::from_index(0xbb)},
                      ActionSetDlDst{MacAddress::from_index(0xcc)},
                      ActionOutput{2, 0}});
  const Bytes frame = tcp_frame_with_options();
  dp.receive_frame(1, frame);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  const Bytes& out = port2_out.frames[0];
  auto p = net::ParsedPacket::parse(out);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().eth.dst, MacAddress::from_index(0xcc));
  EXPECT_EQ(p.value().eth.src, MacAddress::from_index(0xbb));
  expect_same_outside(frame, out, {{0, 12}});
}

TEST_F(DatapathFixture, NwAndTpRewriteOnOptionsFrameKeepsChecksumValid) {
  install_any(*this, {ActionSetNwSrc{Ipv4Address{172, 16, 0, 9}},
                      ActionSetNwDst{Ipv4Address{99, 99, 99, 99}},
                      ActionSetTpDst{8443},
                      ActionOutput{2, 0}});
  const Bytes frame = tcp_frame_with_options();
  dp.receive_frame(1, frame);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  const Bytes& out = port2_out.frames[0];
  const std::size_t ip = net::kEthernetHeaderSize;
  const std::size_t tcp = ip + 24;
  EXPECT_EQ(net::internet_checksum(std::span(out).subspan(ip, 24)), 0);
  auto p = net::ParsedPacket::parse(out);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p.value().tcp.has_value());
  EXPECT_EQ(p.value().ip->src, (Ipv4Address{172, 16, 0, 9}));
  EXPECT_EQ(p.value().ip->dst, (Ipv4Address{99, 99, 99, 99}));
  EXPECT_EQ(p.value().tcp->dst_port, 8443);
  expect_same_outside(frame, out,
                      {{ip + 10, 2}, {ip + 12, 8}, {tcp + 2, 2}});
}

// An OpenFlow 1.0 switch does not verify the IPv4 header checksum: a frame
// with a wrong one matches its exact flow and leaves unchanged.
TEST_F(DatapathFixture, WrongIpv4ChecksumForwardsUnchanged) {
  Bytes frame = udp_frame(kHostA, kIpA, kIpB, 80);
  FlowMod mod;
  mod.match = Match::from_packet(net::ParsedPacket::parse(frame).value(), 1);
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  frame[net::kEthernetHeaderSize + 11] ^= 0x01;
  ASSERT_NE(net::internet_checksum(std::span(frame).subspan(
                net::kEthernetHeaderSize, net::kIpv4MinHeaderSize)),
            0);
  const std::size_t pis_before = controller.of_type<PacketIn>().size();
  dp.receive_frame(1, frame);
  loop.run_for(kMillisecond);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  EXPECT_EQ(port2_out.frames[0], frame);
  EXPECT_EQ(controller.of_type<PacketIn>().size(), pis_before);
}

TEST_F(DatapathFixture, DropRuleSwallowsTraffic) {
  FlowMod mod;
  mod.match = Match::any();
  mod.actions = {};  // drop
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  loop.run_for(kMillisecond);
  EXPECT_TRUE(port1_out.frames.empty());
  EXPECT_TRUE(port2_out.frames.empty());
  EXPECT_TRUE(controller.of_type<PacketIn>().empty());
}

TEST_F(DatapathFixture, FloodExcludesIngress) {
  FlowMod mod;
  mod.match = Match::any();
  mod.actions = output_to(port_no(Port::Flood));
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  loop.run_for(kMillisecond);
  EXPECT_TRUE(port1_out.frames.empty());
  EXPECT_EQ(port2_out.frames.size(), 1u);
}

TEST_F(DatapathFixture, NormalActionLearnsAndForwards) {
  FlowMod mod;
  mod.match = Match::any();
  mod.actions = output_to(port_no(Port::Normal));
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  // A talks first: B unknown → flood (port 2 only).
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_EQ(port2_out.frames.size(), 1u);
  // B replies: A's location was learned → unicast to port 1.
  dp.receive_frame(2, net::build_udp(kHostB, kHostA, kIpB, kIpA, 80, 1234,
                                     Bytes(10, 0)));
  EXPECT_EQ(port1_out.frames.size(), 1u);
  EXPECT_EQ(port2_out.frames.size(), 1u);  // no extra flood
}

TEST_F(DatapathFixture, StatsFlowAndAggregateAndPort) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80, 100));
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80, 100));
  loop.run_for(kMillisecond);

  StatsRequest flow_req;
  flow_req.type = StatsType::Flow;
  flow_req.body = FlowStatsRequest{};
  controller.send(std::move(flow_req), 71);
  StatsRequest agg_req;
  agg_req.type = StatsType::Aggregate;
  agg_req.body = FlowStatsRequest{};
  controller.send(std::move(agg_req), 72);
  StatsRequest port_req;
  port_req.type = StatsType::Port;
  port_req.body = PortStatsRequest{};
  controller.send(std::move(port_req), 73);
  loop.run_for(kMillisecond);

  auto replies = controller.of_type<StatsReply>();
  ASSERT_EQ(replies.size(), 3u);
  const auto& flows = std::get<std::vector<FlowStatsEntry>>(replies[0]->body);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].packet_count, 2u);
  const auto& agg = std::get<AggregateStatsReplyBody>(replies[1]->body);
  EXPECT_EQ(agg.flow_count, 1u);
  EXPECT_EQ(agg.packet_count, 2u);
  const auto& ports = std::get<std::vector<PortStatsEntry>>(replies[2]->body);
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0].rx_packets, 2u);  // port 1 received both frames
  EXPECT_EQ(ports[1].tx_packets, 2u);  // port 2 sent both
}

TEST_F(DatapathFixture, LargeFlowStatsReplyPaginatesUnderFrameCap) {
  // A reply for a big table would overflow the OF 1.0 u16 header length;
  // the datapath must split it into OFPSF_REPLY_MORE fragments, each a
  // decodable frame (FakeController asserts decode on every receive).
  constexpr std::size_t kFlows = 900;
  for (std::size_t i = 0; i < kFlows; ++i) {
    FlowMod mod;
    mod.match = Match::any();
    mod.match.with_dl_type(0x0800).with_nw_dst(
        Ipv4Address{10, static_cast<std::uint8_t>(i >> 8),
                    static_cast<std::uint8_t>(i & 0xff), 1});
    mod.actions = output_to(2);
    controller.send(std::move(mod));
    if (i % 64 == 0) loop.run_for(kMillisecond);
  }
  loop.run_for(kMillisecond);
  ASSERT_EQ(dp.table().size(), kFlows);

  StatsRequest req;
  req.type = StatsType::Flow;
  req.body = FlowStatsRequest{};
  controller.send(std::move(req), 99);
  loop.run_for(kMillisecond);

  auto replies = controller.of_type<StatsReply>();
  ASSERT_GT(replies.size(), 1u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const bool last = i + 1 == replies.size();
    EXPECT_EQ(replies[i]->flags & kStatsReplyMore, last ? 0 : kStatsReplyMore);
    total += std::get<std::vector<FlowStatsEntry>>(replies[i]->body).size();
  }
  EXPECT_EQ(total, kFlows);
}

TEST_F(DatapathFixture, IdleTimeoutEmitsFlowRemoved) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.idle_timeout = 2;
  mod.flags = FlowModFlags::kSendFlowRem;
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  loop.run_for(5 * kSecond);  // expiry sweep fires every second
  auto removed = controller.of_type<FlowRemoved>();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0]->reason, FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(removed[0]->packet_count, 1u);
  EXPECT_EQ(dp.table().size(), 0u);
}

TEST_F(DatapathFixture, DeleteWithNotifyEmitsFlowRemoved) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.flags = FlowModFlags::kSendFlowRem;
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  FlowMod del;
  del.match = Match::any();
  del.command = FlowModCommand::Delete;
  controller.send(std::move(del));
  loop.run_for(kMillisecond);
  auto removed = controller.of_type<FlowRemoved>();
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0]->reason, FlowRemovedReason::Delete);
}

TEST_F(DatapathFixture, PortRemovalAnnouncesAndStopsForwarding) {
  FlowMod mod;
  mod.match = Match::any();
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.remove_port(2);
  loop.run_for(kMillisecond);
  auto statuses = controller.of_type<PortStatus>();
  ASSERT_GE(statuses.size(), 1u);
  EXPECT_EQ(statuses.back()->reason, PortReason::Delete);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_TRUE(port2_out.frames.empty());
}

TEST_F(DatapathFixture, BufferEvictionWhenFull) {
  // n_buffers = 4; the fifth miss evicts the oldest buffer.
  for (int i = 0; i < 5; ++i) {
    dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB,
                                  static_cast<std::uint16_t>(1000 + i)));
  }
  loop.run_for(kMillisecond);
  EXPECT_EQ(dp.stats().buffer_evictions.value(), 1u);
  // The evicted (first) buffer is gone.
  const auto first_buffer = controller.of_type<PacketIn>()[0]->buffer_id;
  PacketOut po;
  po.buffer_id = first_buffer;
  po.actions = output_to(2);
  controller.send(std::move(po), 80);
  loop.run_for(kMillisecond);
  EXPECT_EQ(controller.of_type<ErrorMsg>().size(), 1u);
}

// Released buffers lend their storage to later punts. A release whose
// actions punt the frame again buffers it afresh while the released copy is
// still being forwarded, and frames of other sizes reuse that storage intact.
TEST_F(DatapathFixture, ReleasedBufferStorageServesLaterPunts) {
  const Bytes big = udp_frame(kHostA, kIpA, kIpB, 80, 300);
  dp.receive_frame(1, big);
  loop.run_for(kMillisecond);
  PacketOut po;
  po.buffer_id = controller.of_type<PacketIn>().back()->buffer_id;
  po.in_port = 1;
  po.actions = {ActionOutput{port_no(Port::Controller), 0}, ActionOutput{2, 0}};
  controller.send(std::move(po));
  loop.run_for(kMillisecond);
  ASSERT_EQ(port2_out.frames.size(), 1u);
  EXPECT_EQ(port2_out.frames[0], big);
  auto pis = controller.of_type<PacketIn>();
  ASSERT_EQ(pis.size(), 2u);
  EXPECT_EQ(pis[1]->reason, PacketInReason::Action);
  EXPECT_EQ(Bytes(pis[1]->data.begin(), pis[1]->data.end()), big);

  const auto release = [&](std::uint32_t buffer_id) {
    PacketOut out;
    out.buffer_id = buffer_id;
    out.in_port = 1;
    out.actions = output_to(2);
    controller.send(std::move(out));
    loop.run_for(kMillisecond);
  };
  release(pis[1]->buffer_id);
  for (const std::size_t payload : {300, 10, 600, 0}) {
    const Bytes frame = udp_frame(kHostA, kIpA, kIpB, 81, payload);
    dp.receive_frame(1, frame);
    loop.run_for(kMillisecond);
    release(controller.of_type<PacketIn>().back()->buffer_id);
    EXPECT_EQ(port2_out.frames.back(), frame) << "payload " << payload;
  }
  EXPECT_TRUE(controller.of_type<ErrorMsg>().empty());
  EXPECT_EQ(dp.stats().buffer_evictions.value(), 0u);
}

TEST_F(DatapathFixture, EnqueuePolicesAboveRate) {
  // Queue on port 2: 80 kbit/s = 10 KB/s, burst 2 KB.
  dp.configure_queue(2, 7, 80'000, 2'000);
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = {ActionEnqueue{2, 7}};
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  // Send 100 frames of ~550 B in one virtual second: ~55 KB offered against
  // a 10 KB/s + 2 KB burst budget → most must be policed.
  for (int i = 0; i < 100; ++i) {
    dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80, 512));
    loop.run_for(10 * kMillisecond);
  }
  const auto* q = dp.queue_counters(2, 7);
  ASSERT_NE(q, nullptr);
  EXPECT_GT(q->dropped, 50u);
  EXPECT_GT(q->tx_packets, 5u);
  EXPECT_EQ(q->tx_packets + q->dropped, 100u);
  EXPECT_EQ(port2_out.frames.size(), q->tx_packets);
  // Conforming bytes stay within budget (burst + 1s refill + one frame).
  EXPECT_LE(q->tx_bytes, 2'000u + 10'000u + 600u);
}

TEST_F(DatapathFixture, EnqueueUnconfiguredQueueDegradesToOutput) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = {ActionEnqueue{2, 99}};  // never configured
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_EQ(port2_out.frames.size(), 1u);
}

TEST_F(DatapathFixture, QueueRemovalStopsPolicing) {
  dp.configure_queue(2, 7, 8'000, 100);  // tiny: everything drops
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = {ActionEnqueue{2, 7}};
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80, 512));
  EXPECT_TRUE(port2_out.frames.empty());
  dp.remove_queue(2, 7);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80, 512));
  EXPECT_EQ(port2_out.frames.size(), 1u);  // plain output now
  EXPECT_EQ(dp.queue_counters(2, 7), nullptr);
}

TEST_F(DatapathFixture, MalformedFrameCountsAsDrop) {
  dp.receive_frame(1, Bytes{1, 2, 3});
  EXPECT_EQ(dp.port_counters(1)->rx_dropped, 1u);
  EXPECT_TRUE(controller.of_type<PacketIn>().empty());
}

TEST_F(DatapathFixture, InstalledFlowsSurviveControllerDisconnect) {
  // Fail-open data plane: when the secure channel dies, already-installed
  // flows keep forwarding; only new flows (misses) go dark.
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800).with_tp_dst(80);
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  conn.disconnect();
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_EQ(port2_out.frames.size(), 1u);  // still forwarded

  const auto pis_before = controller.received.size();
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 443));  // miss
  loop.run_for(kMillisecond);
  EXPECT_EQ(controller.received.size(), pis_before);  // nothing arrives
}

TEST_F(DatapathFixture, MicroflowCacheServesRepeatTraffic) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);

  for (int i = 0; i < 3; ++i) {
    dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  }
  EXPECT_EQ(port2_out.frames.size(), 3u);
  // First packet runs the classifier and seeds the cache; the rest hit.
  EXPECT_EQ(dp.stats().microflow_misses.value(), 1u);
  EXPECT_EQ(dp.stats().microflow_hits.value(), 2u);
  EXPECT_EQ(dp.stats().microflow_invalidations.value(), 0u);
  EXPECT_EQ(dp.microflow_cache().size(), 1u);
  // Table-level stats still count every packet, hit or not.
  EXPECT_EQ(dp.table().stats().lookups.value(), 3u);
  EXPECT_EQ(dp.table().stats().matches.value(), 3u);
}

TEST_F(DatapathFixture, FlowModInvalidatesMicroflowCache) {
  FlowMod broad;
  broad.match = Match::any();
  broad.match.with_dl_type(0x0800);
  broad.priority = 100;
  broad.actions = output_to(2);
  controller.send(std::move(broad));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_EQ(port2_out.frames.size(), 2u);
  EXPECT_EQ(dp.stats().microflow_hits.value(), 1u);

  // A higher-priority rule arrives for the same traffic. The cached handle
  // must not keep winning: the next packet re-runs the classifier.
  FlowMod narrow;
  narrow.match = Match::any();
  narrow.match.with_dl_type(0x0800).with_tp_dst(80);
  narrow.priority = 200;
  narrow.actions = output_to(1);
  controller.send(std::move(narrow));
  loop.run_for(kMillisecond);

  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_EQ(port1_out.frames.size(), 1u);  // new rule applied, not stale
  EXPECT_EQ(port2_out.frames.size(), 2u);
  EXPECT_EQ(dp.stats().microflow_invalidations.value(), 1u);
}

TEST_F(DatapathFixture, CachedHitsFeedPerFlowCounters) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  for (int i = 0; i < 3; ++i) {
    dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80, 100));
  }
  ASSERT_EQ(dp.stats().microflow_hits.value(), 2u);

  StatsRequest flow_req;
  flow_req.type = StatsType::Flow;
  flow_req.body = FlowStatsRequest{};
  controller.send(std::move(flow_req), 91);
  loop.run_for(kMillisecond);
  auto replies = controller.of_type<StatsReply>();
  ASSERT_EQ(replies.size(), 1u);
  const auto& flows = std::get<std::vector<FlowStatsEntry>>(replies[0]->body);
  ASSERT_EQ(flows.size(), 1u);
  // Cache-served packets still land in the entry's OpenFlow counters.
  EXPECT_EQ(flows[0].packet_count, 3u);
}

TEST_F(DatapathFixture, ExpiryInvalidatesMicroflowCache) {
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_dl_type(0x0800);
  mod.idle_timeout = 2;
  mod.actions = output_to(2);
  controller.send(std::move(mod));
  loop.run_for(kMillisecond);
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  EXPECT_EQ(port2_out.frames.size(), 2u);
  EXPECT_TRUE(controller.of_type<PacketIn>().empty());

  loop.run_for(5 * kSecond);  // idle timeout fires; the entry is gone
  EXPECT_EQ(dp.table().size(), 0u);
  // The cached handle must not serve the dead flow: this is a miss again.
  dp.receive_frame(1, udp_frame(kHostA, kIpA, kIpB, 80));
  loop.run_for(kMillisecond);
  EXPECT_EQ(port2_out.frames.size(), 2u);  // not forwarded by a stale entry
  EXPECT_EQ(controller.of_type<PacketIn>().size(), 1u);
}

TEST(DatapathTableFull, RejectedAddAnswersWithError) {
  sim::EventLoop loop;
  Datapath dp(loop, {.datapath_id = 1, .table_capacity = 1});
  StreamConnection conn(loop);
  FakeController controller(conn.controller_end());
  dp.connect(conn.datapath_end());
  loop.run_for(kMillisecond);

  FlowMod a;
  a.match = Match::any();
  a.match.with_tp_dst(80);
  a.actions = output_to(1);
  controller.send(std::move(a), 11);
  FlowMod b;
  b.match = Match::any();
  b.match.with_tp_dst(443);
  b.actions = output_to(1);
  controller.send(std::move(b), 12);
  loop.run_for(kMillisecond);

  EXPECT_EQ(dp.table().size(), 1u);
  EXPECT_EQ(dp.table().stats().table_full.value(), 1u);
  auto errors = controller.of_type<ErrorMsg>();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0]->type, ErrorType::FlowModFailed);
  EXPECT_EQ(errors[0]->code, 0u);  // OFPFMFC_ALL_TABLES_FULL
  EXPECT_EQ(controller.received.back().xid, 12u);  // echoes the bad request
}

// -- Differential property: in-place executor vs the rebuild oracle ---------

/// The executor's previous rewrite: parse the frame, edit the parsed layers,
/// re-serialize the whole frame. Kept as the oracle with one behaviour
/// fixed: frames whose payload it does not model (neither ARP nor IPv4)
/// take the MAC rewrite and keep their payload, where the old code passed
/// them through unchanged.
Bytes rewrite_frame(const Bytes& frame,
                    const std::function<void(net::ParsedPacket&)>& edit) {
  auto parsed = net::ParsedPacket::parse(frame);
  if (!parsed) return frame;
  auto p = std::move(parsed).take();
  edit(p);

  if (p.arp) {
    ByteWriter w;
    p.arp->serialize(w);
    return net::build_ethernet(p.eth.src, p.eth.dst,
                               static_cast<net::EtherType>(p.eth.ethertype),
                               w.bytes());
  }
  if (p.ip) {
    ByteWriter w(frame.size());
    p.eth.serialize(w);
    if (p.udp) {
      p.ip->serialize(w, net::kUdpHeaderSize + p.l4_payload.size());
      p.udp->length = 0;  // recompute
      p.udp->serialize(w, p.l4_payload.size());
      w.raw(p.l4_payload);
    } else if (p.tcp) {
      p.ip->serialize(w, net::kTcpMinHeaderSize + p.l4_payload.size());
      p.tcp->serialize(w);
      w.raw(p.l4_payload);
    } else if (p.icmp) {
      p.ip->serialize(w, 8);
      p.icmp->serialize(w);
    } else {
      p.ip->serialize(w, 0);
    }
    return std::move(w).take();
  }
  return net::build_ethernet(
      p.eth.src, p.eth.dst, static_cast<net::EtherType>(p.eth.ethertype),
      std::span(frame).subspan(net::kEthernetHeaderSize));
}

/// The frames an action list emits under the oracle, in output order.
std::vector<Bytes> oracle_outputs(const ActionList& actions, Bytes frame) {
  std::vector<Bytes> out;
  for (const auto& action : actions) {
    std::visit(
        [&](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          if constexpr (std::is_same_v<T, ActionOutput> ||
                        std::is_same_v<T, ActionEnqueue>) {
            out.push_back(frame);
          } else if constexpr (std::is_same_v<T, ActionSetDlSrc>) {
            frame = rewrite_frame(frame, [&](net::ParsedPacket& p) { p.eth.src = a.mac; });
          } else if constexpr (std::is_same_v<T, ActionSetDlDst>) {
            frame = rewrite_frame(frame, [&](net::ParsedPacket& p) { p.eth.dst = a.mac; });
          } else if constexpr (std::is_same_v<T, ActionSetNwSrc>) {
            frame = rewrite_frame(frame, [&](net::ParsedPacket& p) {
              if (p.ip) p.ip->src = a.addr;
            });
          } else if constexpr (std::is_same_v<T, ActionSetNwDst>) {
            frame = rewrite_frame(frame, [&](net::ParsedPacket& p) {
              if (p.ip) p.ip->dst = a.addr;
            });
          } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
            frame = rewrite_frame(frame, [&](net::ParsedPacket& p) {
              if (p.udp) p.udp->src_port = a.port;
              if (p.tcp) p.tcp->src_port = a.port;
            });
          } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
            frame = rewrite_frame(frame, [&](net::ParsedPacket& p) {
              if (p.udp) p.udp->dst_port = a.port;
              if (p.tcp) p.tcp->dst_port = a.port;
            });
          }
        },
        action);
  }
  return out;
}

MacAddress random_mac(Rng& rng) {
  return MacAddress::from_index(static_cast<std::uint32_t>(rng.next()));
}
Ipv4Address random_ip(Rng& rng) {
  return Ipv4Address{static_cast<std::uint32_t>(rng.next())};
}
Bytes random_payload(Rng& rng, std::size_t max) {
  Bytes b(rng.uniform(max + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// A canonical frame from one of the net::build_* builders.
Bytes random_frame(Rng& rng) {
  const MacAddress src = random_mac(rng);
  const MacAddress dst = random_mac(rng);
  switch (rng.uniform(5)) {
    case 0:
      return net::build_udp(src, dst, random_ip(rng), random_ip(rng),
                            static_cast<std::uint16_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next()),
                            random_payload(rng, 96),
                            static_cast<std::uint8_t>(rng.next()));
    case 1: {
      net::TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(rng.next());
      tcp.dst_port = static_cast<std::uint16_t>(rng.next());
      tcp.seq = static_cast<std::uint32_t>(rng.next());
      tcp.ack = static_cast<std::uint32_t>(rng.next());
      tcp.flags = static_cast<std::uint8_t>(rng.uniform(0x40));
      tcp.window = static_cast<std::uint16_t>(rng.next());
      return net::build_tcp(src, dst, random_ip(rng), random_ip(rng), tcp,
                            random_payload(rng, 96));
    }
    case 2:
      return net::build_icmp_echo(
          src, dst, random_ip(rng), random_ip(rng),
          rng.chance(0.5) ? net::IcmpType::EchoRequest : net::IcmpType::EchoReply,
          static_cast<std::uint16_t>(rng.next()),
          static_cast<std::uint16_t>(rng.next()));
    case 3: {
      net::ArpMessage arp;
      arp.op = rng.chance(0.5) ? net::ArpOp::Request : net::ArpOp::Reply;
      arp.sender_mac = src;
      arp.sender_ip = random_ip(rng);
      arp.target_mac = dst;
      arp.target_ip = random_ip(rng);
      return net::build_arp(arp);
    }
    default: {
      constexpr std::uint16_t kTypes[] = {0x88cc, 0x86dd, 0x8100, 0x9000};
      return net::build_ethernet(src, dst,
                                 static_cast<net::EtherType>(kTypes[rng.uniform(4)]),
                                 random_payload(rng, 64));
    }
  }
}

ActionList random_actions(Rng& rng) {
  ActionList actions;
  const std::size_t n = rng.uniform(7);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.uniform(8)) {
      case 0: actions.push_back(ActionOutput{static_cast<std::uint16_t>(2 + rng.uniform(2)), 0}); break;
      case 1: actions.push_back(ActionSetDlSrc{random_mac(rng)}); break;
      case 2: actions.push_back(ActionSetDlDst{random_mac(rng)}); break;
      case 3: actions.push_back(ActionSetNwSrc{random_ip(rng)}); break;
      case 4: actions.push_back(ActionSetNwDst{random_ip(rng)}); break;
      case 5: actions.push_back(ActionSetTpSrc{static_cast<std::uint16_t>(rng.next())}); break;
      case 6: actions.push_back(ActionSetTpDst{static_cast<std::uint16_t>(rng.next())}); break;
      default: actions.push_back(ActionEnqueue{2, 7}); break;  // unconfigured: output
    }
  }
  if (rng.chance(0.8)) actions.push_back(ActionOutput{2, 0});
  return actions;
}

TEST_F(DatapathFixture, InPlaceActionsMatchRebuildOracle) {
  // Both output ports feed one collector, so it sees every emitted frame in
  // emission order. Even cases run as a flow hit (the datapath's own parse
  // is reused), odd ones as an unbuffered packet-out (parsed on demand).
  Collector emitted;
  dp.add_port(2, "p2", MacAddress::from_index(0xa2), &emitted);
  dp.add_port(3, "p3", MacAddress::from_index(0xa3), &emitted);
  Rng rng(0xc0ffee);
  constexpr int kCases = 12000;
  for (int i = 0; i < kCases; ++i) {
    const Bytes frame = random_frame(rng);
    const ActionList actions = random_actions(rng);
    const Bytes sent = frame;
    emitted.frames.clear();
    if (i % 2 == 0) {
      FlowMod mod;
      mod.match = Match::any();
      mod.actions = actions;
      ASSERT_EQ(dp.table().apply(mod, loop.now()), FlowModResult::Added);
      dp.receive_frame(1, frame);
    } else {
      PacketOut po;
      po.in_port = 1;
      po.actions = actions;
      po.data = frame;
      controller.send(std::move(po));
      loop.run_for(kMillisecond);
    }
    ASSERT_EQ(emitted.frames, oracle_outputs(actions, frame))
        << "case " << i << ": " << to_string(actions) << "\n"
        << hex_dump(frame, 128);
    ASSERT_EQ(frame, sent) << "the caller's frame was modified";
  }
}

/// Forwards every frame to a collector, and on the first one first feeds
/// `reinject` back into the datapath on `in_port`, from inside the output.
class ReinjectingSink final : public sim::FrameSink {
 public:
  ReinjectingSink(Datapath& dp, std::uint16_t in_port, Bytes reinject,
                  Collector& out)
      : dp_(dp), in_port_(in_port), reinject_(std::move(reinject)), out_(out) {}
  void deliver(const Bytes& frame) override {
    if (!reinjected_) {
      reinjected_ = true;
      dp_.receive_frame(in_port_, reinject_);
    }
    out_.deliver(frame);
  }

 private:
  Datapath& dp_;
  std::uint16_t in_port_;
  Bytes reinject_;
  Collector& out_;
  bool reinjected_ = false;
};

TEST_F(DatapathFixture, ReentrantOutputKeepsBothRewrites) {
  // Port 2's sink re-injects a second frame on port 3 while the first
  // frame's action list is mid-way: the nested rewrite must not clobber the
  // outer one, which rewrites again after the output.
  Collector emitted;
  const Bytes outer = udp_frame(kHostA, kIpA, kIpB, 80, 40);
  const Bytes inner = udp_frame(MacAddress::from_index(7), Ipv4Address{10, 0, 0, 7},
                                kIpB, 53, 90);
  ReinjectingSink reinjecting(dp, 3, inner, emitted);
  dp.add_port(2, "p2", MacAddress::from_index(0xa2), &reinjecting);
  dp.add_port(3, "p3", MacAddress::from_index(0xa3), &emitted);
  dp.add_port(4, "p4", MacAddress::from_index(0xa4), &emitted);

  const ActionList outer_actions = {ActionSetDlDst{MacAddress::from_index(0xcc)},
                                    ActionSetNwDst{Ipv4Address{99, 1, 2, 3}},
                                    ActionOutput{2, 0},
                                    ActionSetTpDst{8080},
                                    ActionOutput{4, 0}};
  const ActionList inner_actions = {ActionSetDlSrc{MacAddress::from_index(0xdd)},
                                    ActionSetNwSrc{Ipv4Address{172, 16, 0, 9}},
                                    ActionSetTpSrc{4242},
                                    ActionOutput{4, 0}};
  for (const auto& [port, actions] :
       {std::pair{std::uint16_t{1}, outer_actions},
        std::pair{std::uint16_t{3}, inner_actions}}) {
    FlowMod mod;
    mod.match = Match::any();
    mod.match.with_in_port(port);
    mod.actions = actions;
    ASSERT_EQ(dp.table().apply(mod, loop.now()), FlowModResult::Added);
  }

  dp.receive_frame(1, outer);
  const std::vector<Bytes> outer_out = oracle_outputs(outer_actions, outer);
  const std::vector<Bytes> inner_out = oracle_outputs(inner_actions, inner);
  // The nested frame leaves first: port 2's sink re-injects before it
  // forwards the outer frame.
  ASSERT_EQ(emitted.frames.size(), 3u);
  EXPECT_EQ(emitted.frames[0], inner_out[0]);
  EXPECT_EQ(emitted.frames[1], outer_out[0]);
  EXPECT_EQ(emitted.frames[2], outer_out[1]);
  for (const Bytes& f : emitted.frames) {
    EXPECT_EQ(net::internet_checksum(std::span(f).subspan(net::kEthernetHeaderSize,
                                                          net::kIpv4MinHeaderSize)),
              0);
  }
}

TEST_F(DatapathFixture, OutputBeforeSetFieldCarriesOriginalBytes) {
  Collector emitted;
  dp.add_port(2, "p2", MacAddress::from_index(0xa2), &emitted);
  FlowMod mod;
  mod.match = Match::any();
  mod.actions = {ActionOutput{2, 0}, ActionSetDlDst{MacAddress::from_index(0xcc)},
                 ActionSetTpDst{8080}, ActionOutput{2, 0}};
  ASSERT_EQ(dp.table().apply(mod, loop.now()), FlowModResult::Added);
  // Twice: the second frame's first output must not see the kept buffer's
  // rewrite of the first frame.
  for (int i = 0; i < 2; ++i) {
    const Bytes frame = udp_frame(kHostA, kIpA, kIpB, static_cast<std::uint16_t>(80 + i));
    emitted.frames.clear();
    dp.receive_frame(1, frame);
    ASSERT_EQ(emitted.frames.size(), 2u);
    EXPECT_EQ(emitted.frames[0], frame);
    EXPECT_EQ(emitted.frames[1], oracle_outputs(mod.actions, frame)[1]);
  }
}

TEST_F(DatapathFixture, JumboRewriteReleasesKeptBuffer) {
  Collector emitted;
  dp.add_port(2, "p2", MacAddress::from_index(0xa2), &emitted);
  const ActionList actions = {ActionSetNwDst{Ipv4Address{99, 99, 99, 99}},
                              ActionOutput{2, 0}};
  const auto packet_out = [&](const Bytes& frame) {
    PacketOut po;
    po.in_port = 1;
    po.actions = actions;
    po.data = frame;
    controller.send(std::move(po));
    loop.run_for(kMillisecond);
  };

  packet_out(udp_frame(kHostA, kIpA, kIpB, 80, 200));
  EXPECT_GE(dp.rewrite_capacity(), 200u);  // kept for the next rewrite

  const Bytes jumbo = udp_frame(kHostA, kIpA, kIpB, 80, 9000);
  packet_out(jumbo);
  ASSERT_EQ(emitted.frames.size(), 2u);
  EXPECT_EQ(emitted.frames[1], oracle_outputs(actions, jumbo)[0]);
  EXPECT_EQ(dp.rewrite_capacity(), 0u);
}

TEST_F(DatapathFixture, IngressAdapterRoutesToPort) {
  sim::FrameSink* ingress = dp.ingress(1);
  ASSERT_NE(ingress, nullptr);
  ingress->deliver(udp_frame(kHostA, kIpA, kIpB, 80));
  loop.run_for(kMillisecond);
  EXPECT_EQ(controller.of_type<PacketIn>().size(), 1u);
  EXPECT_EQ(dp.ingress(99), nullptr);
}

}  // namespace
}  // namespace hw::ofp
