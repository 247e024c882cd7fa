// OpenFlow 1.0 wire codec: every message type must round-trip, framing must
// be exact (length field), and malformed input must be rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "openflow/messages.hpp"

namespace hw::ofp {
namespace {

/// Encodes and decodes through a temporary wire buffer: for messages that
/// own their fields (a decoded PacketIn views the wire; see its test).
Envelope round_trip(const Envelope& env) {
  const Bytes wire = encode(env);
  // Wire framing invariants.
  EXPECT_GE(wire.size(), kHeaderSize);
  EXPECT_EQ(wire[0], kWireVersion);
  EXPECT_EQ(peek_length(wire), wire.size());
  auto decoded = decode(wire);
  EXPECT_TRUE(decoded.ok()) << (decoded.ok() ? "" : decoded.error().message);
  return std::move(decoded).take();
}

TEST(OfpCodec, Hello) {
  auto out = round_trip({42, Hello{}});
  EXPECT_EQ(out.xid, 42u);
  EXPECT_TRUE(std::holds_alternative<Hello>(out.msg));
}

TEST(OfpCodec, EchoCarriesPayload) {
  auto out = round_trip({7, EchoRequest{{1, 2, 3}}});
  EXPECT_EQ(std::get<EchoRequest>(out.msg).data, (Bytes{1, 2, 3}));
  auto reply = round_trip({7, EchoReply{{9}}});
  EXPECT_EQ(std::get<EchoReply>(reply.msg).data, (Bytes{9}));
}

TEST(OfpCodec, Error) {
  ErrorMsg err;
  err.type = ErrorType::FlowModFailed;
  err.code = 2;
  err.data = {0xde, 0xad};
  auto out = round_trip({1, err});
  const auto& m = std::get<ErrorMsg>(out.msg);
  EXPECT_EQ(m.type, ErrorType::FlowModFailed);
  EXPECT_EQ(m.code, 2);
  EXPECT_EQ(m.data, (Bytes{0xde, 0xad}));
}

TEST(OfpCodec, FeaturesReplyWithPorts) {
  FeaturesReply fr;
  fr.datapath_id = 0x00aabbccddeeff11ull;
  fr.n_buffers = 256;
  fr.n_tables = 1;
  fr.ports.push_back(PhyPort{1, MacAddress::from_index(1), "uplink", 0, 0, 0});
  fr.ports.push_back(PhyPort{2, MacAddress::from_index(2),
                             "a-very-long-port-name-truncated", 0, 0, 0});
  auto out = round_trip({3, fr});
  const auto& m = std::get<FeaturesReply>(out.msg);
  EXPECT_EQ(m.datapath_id, fr.datapath_id);
  ASSERT_EQ(m.ports.size(), 2u);
  EXPECT_EQ(m.ports[0].name, "uplink");
  EXPECT_EQ(m.ports[1].name.size(), 16u);  // fixed 16-byte field, no NUL left
  EXPECT_EQ(m.ports[1].hw_addr, MacAddress::from_index(2));
}

TEST(OfpCodec, PacketIn) {
  // PacketIn::data is a view both ways: the frame it is built from and the
  // wire it is decoded from must outlive it, so neither is a temporary here.
  const Bytes frame(64, 0xaa);
  PacketIn pi;
  pi.buffer_id = 77;
  pi.total_len = 1500;
  pi.in_port = 3;
  pi.reason = PacketInReason::Action;
  pi.data = frame;
  const Bytes wire = encode({9, pi});
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const auto& m = std::get<PacketIn>(decoded.value().msg);
  EXPECT_EQ(m.buffer_id, 77u);
  EXPECT_EQ(m.total_len, 1500);
  EXPECT_EQ(m.in_port, 3);
  EXPECT_EQ(m.reason, PacketInReason::Action);
  EXPECT_TRUE(std::equal(m.data.begin(), m.data.end(), frame.begin(), frame.end()));
  // The decoded frame is the wire's own bytes, not a copy of them.
  EXPECT_EQ(m.data.data(), wire.data() + kHeaderSize + 10);
}

TEST(OfpCodec, PacketOutWithActionsAndData) {
  PacketOut po;
  po.buffer_id = kNoBuffer;
  po.in_port = port_no(Port::None);
  po.actions = {ActionSetDlDst{MacAddress::from_index(5)}, ActionOutput{2, 0}};
  po.data = Bytes(20, 0x11);
  auto out = round_trip({4, po});
  const auto& m = std::get<PacketOut>(out.msg);
  ASSERT_EQ(m.actions.size(), 2u);
  EXPECT_EQ(std::get<ActionSetDlDst>(m.actions[0]).mac, MacAddress::from_index(5));
  EXPECT_EQ(std::get<ActionOutput>(m.actions[1]).port, 2);
  EXPECT_EQ(m.data.size(), 20u);
}

TEST(OfpCodec, FlowModFull) {
  FlowMod mod;
  mod.match.with_dl_type(0x0800).with_nw_proto(17).with_tp_dst(53);
  mod.cookie = 0x1234567890abcdefull;
  mod.command = FlowModCommand::Add;
  mod.idle_timeout = 10;
  mod.hard_timeout = 300;
  mod.priority = 0x9999;
  mod.buffer_id = 5;
  mod.flags = FlowModFlags::kSendFlowRem | FlowModFlags::kCheckOverlap;
  mod.actions = {ActionSetNwDst{Ipv4Address{1, 2, 3, 4}},
                 ActionSetTpDst{8080},
                 ActionOutput{port_no(Port::Controller), 128}};
  auto out = round_trip({5, mod});
  const auto& m = std::get<FlowMod>(out.msg);
  EXPECT_TRUE(m.match.same_pattern(mod.match));
  EXPECT_EQ(m.cookie, mod.cookie);
  EXPECT_EQ(m.command, FlowModCommand::Add);
  EXPECT_EQ(m.idle_timeout, 10);
  EXPECT_EQ(m.hard_timeout, 300);
  EXPECT_EQ(m.priority, 0x9999);
  EXPECT_EQ(m.buffer_id, 5u);
  EXPECT_EQ(m.flags, mod.flags);
  ASSERT_EQ(m.actions.size(), 3u);
  EXPECT_EQ(std::get<ActionSetNwDst>(m.actions[0]).addr, (Ipv4Address{1, 2, 3, 4}));
  EXPECT_EQ(std::get<ActionSetTpDst>(m.actions[1]).port, 8080);
  EXPECT_EQ(std::get<ActionOutput>(m.actions[2]).max_len, 128);
}

TEST(OfpCodec, FlowRemoved) {
  FlowRemoved fr;
  fr.match.with_nw_src(Ipv4Address{10, 0, 0, 1});
  fr.cookie = 99;
  fr.priority = 0x8000;
  fr.reason = FlowRemovedReason::IdleTimeout;
  fr.duration_sec = 12;
  fr.idle_timeout = 10;
  fr.packet_count = 1000;
  fr.byte_count = 123456;
  auto out = round_trip({6, fr});
  const auto& m = std::get<FlowRemoved>(out.msg);
  EXPECT_EQ(m.reason, FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(m.packet_count, 1000u);
  EXPECT_EQ(m.byte_count, 123456u);
  EXPECT_TRUE(m.match.same_pattern(fr.match));
}

TEST(OfpCodec, PortStatus) {
  PortStatus ps;
  ps.reason = PortReason::Delete;
  ps.desc = PhyPort{4, MacAddress::from_index(4), "port4", 0, 0, 0};
  auto out = round_trip({8, ps});
  const auto& m = std::get<PortStatus>(out.msg);
  EXPECT_EQ(m.reason, PortReason::Delete);
  EXPECT_EQ(m.desc.port_no, 4);
  EXPECT_EQ(m.desc.name, "port4");
}

TEST(OfpCodec, StatsRequestFlow) {
  StatsRequest req;
  req.type = StatsType::Flow;
  FlowStatsRequest body;
  body.match.with_nw_dst(Ipv4Address{8, 8, 8, 8});
  body.table_id = 0xff;
  body.out_port = 3;
  req.body = body;
  auto out = round_trip({2, req});
  const auto& m = std::get<StatsRequest>(out.msg);
  EXPECT_EQ(m.type, StatsType::Flow);
  const auto& b = std::get<FlowStatsRequest>(m.body);
  EXPECT_EQ(b.out_port, 3);
  EXPECT_TRUE(b.match.same_pattern(body.match));
}

TEST(OfpCodec, StatsReplyFlowEntries) {
  StatsReply reply;
  reply.type = StatsType::Flow;
  std::vector<FlowStatsEntry> flows;
  FlowStatsEntry e;
  e.match.with_dl_type(0x0800).with_nw_src(Ipv4Address{192, 168, 1, 100});
  e.priority = 7;
  e.duration_sec = 10;
  e.packet_count = 55;
  e.byte_count = 5555;
  e.actions = output_to(2);
  flows.push_back(e);
  e.packet_count = 66;
  flows.push_back(e);
  reply.body = flows;
  auto out = round_trip({11, reply});
  const auto& m = std::get<StatsReply>(out.msg);
  const auto& entries = std::get<std::vector<FlowStatsEntry>>(m.body);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].packet_count, 55u);
  EXPECT_EQ(entries[1].packet_count, 66u);
  EXPECT_EQ(entries[0].byte_count, 5555u);
  ASSERT_EQ(entries[0].actions.size(), 1u);
}

TEST(OfpCodec, StatsReplyAggregate) {
  StatsReply reply;
  reply.type = StatsType::Aggregate;
  reply.body = AggregateStatsReplyBody{100, 20000, 7};
  auto out = round_trip({12, reply});
  const auto& agg =
      std::get<AggregateStatsReplyBody>(std::get<StatsReply>(out.msg).body);
  EXPECT_EQ(agg.packet_count, 100u);
  EXPECT_EQ(agg.byte_count, 20000u);
  EXPECT_EQ(agg.flow_count, 7u);
}

TEST(OfpCodec, StatsReplyPorts) {
  StatsReply reply;
  reply.type = StatsType::Port;
  std::vector<PortStatsEntry> ports;
  PortStatsEntry p;
  p.port_no = 1;
  p.rx_packets = 10;
  p.tx_packets = 20;
  p.rx_bytes = 1000;
  p.tx_bytes = 2000;
  p.rx_dropped = 1;
  ports.push_back(p);
  reply.body = ports;
  auto out = round_trip({13, reply});
  const auto& entries =
      std::get<std::vector<PortStatsEntry>>(std::get<StatsReply>(out.msg).body);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].tx_bytes, 2000u);
  EXPECT_EQ(entries[0].rx_dropped, 1u);
}

TEST(OfpCodec, StatsReplyDesc) {
  StatsReply reply;
  reply.type = StatsType::Desc;
  reply.body = DescStats{};
  auto out = round_trip({14, reply});
  const auto& desc = std::get<DescStats>(std::get<StatsReply>(out.msg).body);
  EXPECT_EQ(desc.mfr_desc, "Homework project");
}

// ---------------------------------------------------------------------------
// Fixed-width string fields at exact field width (16-byte port names,
// 256-byte desc strings) and their NUL-padding on the wire.

TEST(OfpCodec, PortNameRoundTripsAtExactFieldWidth) {
  FeaturesReply fr;
  fr.datapath_id = 1;
  // Exactly 16 chars fill the field completely: no NUL survives on the wire
  // and the decoder must take all 16 without reading past the field.
  fr.ports.push_back(
      PhyPort{7, MacAddress::from_index(7), std::string(16, 'p'), 0, 0, 0});
  // 15 chars leave exactly one byte of NUL padding, which the reader strips.
  fr.ports.push_back(
      PhyPort{8, MacAddress::from_index(8), std::string(15, 'q'), 0, 0, 0});
  // Over-long names truncate to the field width on the wire.
  fr.ports.push_back(
      PhyPort{9, MacAddress::from_index(9), std::string(40, 'r'), 0, 0, 0});
  auto out = round_trip({5, fr});
  const auto& ports = std::get<FeaturesReply>(out.msg).ports;
  ASSERT_EQ(ports.size(), 3u);
  EXPECT_EQ(ports[0].name, std::string(16, 'p'));
  EXPECT_EQ(ports[1].name, std::string(15, 'q'));
  EXPECT_EQ(ports[2].name, std::string(16, 'r'));
}

TEST(OfpCodec, PortNamePaddingIsNulOnTheWire) {
  FeaturesReply fr;
  fr.datapath_id = 1;
  fr.ports.push_back(PhyPort{1, MacAddress::from_index(1), "eth0", 0, 0, 0});
  const Bytes wire = encode({1, fr});
  const std::string name = "eth0";
  const auto it = std::search(wire.begin(), wire.end(), name.begin(), name.end());
  ASSERT_NE(it, wire.end());
  for (std::size_t i = name.size(); i < 16; ++i) {
    EXPECT_EQ(*(it + static_cast<std::ptrdiff_t>(i)), 0u)
        << "padding byte " << i << " not NUL";
  }
}

TEST(OfpCodec, DescStringsRoundTripAtExactWidthAndTruncateBeyond) {
  DescStats desc;
  desc.mfr_desc = std::string(256, 'm');   // exactly DESC_STR_LEN
  desc.hw_desc = std::string(300, 'h');    // beyond: truncated on the wire
  desc.sw_desc = std::string(255, 'w');    // one NUL of padding
  desc.serial_num = std::string(32, 's');  // exactly SERIAL_NUM_LEN
  desc.dp_desc = "home";
  StatsReply reply;
  reply.type = StatsType::Desc;
  reply.body = desc;
  auto out = round_trip({9, reply});
  const auto& d = std::get<DescStats>(std::get<StatsReply>(out.msg).body);
  EXPECT_EQ(d.mfr_desc, std::string(256, 'm'));
  EXPECT_EQ(d.hw_desc, std::string(256, 'h'));
  EXPECT_EQ(d.sw_desc, std::string(255, 'w'));
  EXPECT_EQ(d.serial_num, std::string(32, 's'));
  EXPECT_EQ(d.dp_desc, "home");
}

TEST(OfpCodec, Barrier) {
  auto req = round_trip({20, BarrierRequest{}});
  EXPECT_TRUE(std::holds_alternative<BarrierRequest>(req.msg));
  auto rep = round_trip({20, BarrierReply{}});
  EXPECT_TRUE(std::holds_alternative<BarrierReply>(rep.msg));
}

// ---------------------------------------------------------------------------
// Framing errors

TEST(OfpCodec, RejectsBadVersion) {
  Bytes wire = encode({1, Hello{}});
  wire[0] = 0x04;
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OfpCodec, RejectsLengthMismatch) {
  Bytes wire = encode({1, Hello{}});
  wire.push_back(0);
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OfpCodec, RejectsTruncatedBody) {
  Bytes wire = encode({1, FlowRemoved{}});
  wire.resize(wire.size() - 4);
  wire[2] = static_cast<std::uint8_t>(wire.size() >> 8);
  wire[3] = static_cast<std::uint8_t>(wire.size());
  EXPECT_FALSE(decode(wire).ok());
}

TEST(OfpCodec, PeekLengthNeedsHeader) {
  Bytes tiny{1, 2, 3};
  EXPECT_EQ(peek_length(tiny), 0u);
}

TEST(OfpCodec, UnknownActionTypeSkipped) {
  // Hand-assemble a flow-mod whose action list contains an unknown TLV
  // followed by a known output action: the unknown must be skipped.
  FlowMod mod;
  mod.actions = {};
  Bytes wire = encode({1, mod});
  // Append unknown action (type 0x7777, len 8) + output action.
  ByteWriter extra;
  extra.u16(0x7777);
  extra.u16(8);
  extra.u32(0);
  extra.u16(0);  // OUTPUT
  extra.u16(8);
  extra.u16(4);
  extra.u16(0);
  wire.insert(wire.end(), extra.bytes().begin(), extra.bytes().end());
  wire[2] = static_cast<std::uint8_t>(wire.size() >> 8);
  wire[3] = static_cast<std::uint8_t>(wire.size());
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  const auto& m = std::get<FlowMod>(decoded.value().msg);
  ASSERT_EQ(m.actions.size(), 1u);
  EXPECT_EQ(std::get<ActionOutput>(m.actions[0]).port, 4);
}

// Parameterized action round-trip.
class ActionRoundTrip : public ::testing::TestWithParam<Action> {};

TEST_P(ActionRoundTrip, SurvivesWire) {
  ByteWriter w;
  serialize_actions(w, {GetParam()});
  ByteReader r(w.bytes());
  auto parsed = parse_actions(r, w.size());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0], GetParam());
  EXPECT_EQ(w.size() % 8, 0u);  // OF actions are 8-byte aligned
}

INSTANTIATE_TEST_SUITE_P(
    AllActions, ActionRoundTrip,
    ::testing::Values(Action{ActionOutput{1, 0}},
                      Action{ActionOutput{port_no(Port::Controller), 1024}},
                      Action{ActionSetDlSrc{MacAddress::from_index(9)}},
                      Action{ActionSetDlDst{MacAddress::broadcast()}},
                      Action{ActionSetNwSrc{Ipv4Address{10, 0, 0, 1}}},
                      Action{ActionSetNwDst{Ipv4Address{8, 8, 8, 8}}},
                      Action{ActionSetTpSrc{53}},
                      Action{ActionSetTpDst{65535}}));

TEST(Actions, ToStringForms) {
  EXPECT_EQ(to_string(ActionList{}), "drop");
  EXPECT_EQ(to_string(output_to(3)), "output:3");
  EXPECT_EQ(to_string(send_to_controller()), "output:CONTROLLER");
  EXPECT_EQ(to_string(Action{ActionSetTpDst{80}}), "set_tp_dst:80");
}

}  // namespace
}  // namespace hw::ofp
