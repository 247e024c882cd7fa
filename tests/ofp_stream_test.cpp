// Stream-framed secure channel: framer reassembly/split/reject behavior, a
// whole home speaking framed OpenFlow end to end, and liveness over a
// stalled stream with resync through the framed channel after reconnect.
#include "openflow/stream_channel.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "openflow/messages.hpp"
#include "sim/host.hpp"
#include "telemetry/metrics.hpp"

namespace hw::ofp {
namespace {

Bytes wire(std::uint32_t xid) { return encode({xid, Hello{}}); }

std::vector<Bytes> collect(StreamFramer& framer,
                           std::span<const std::uint8_t> data) {
  std::vector<Bytes> out;
  framer.feed(data, [&out](const Bytes& frame) { out.push_back(frame); });
  return out;
}

TEST(StreamFramer, SplitsCoalescedReads) {
  StreamFramer framer;
  Bytes stream = wire(1);
  const Bytes second = wire(2);
  stream.insert(stream.end(), second.begin(), second.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], wire(1));
  EXPECT_EQ(frames[1], wire(2));
  EXPECT_EQ(framer.stats().frames_ok.value(), 2u);
  EXPECT_EQ(framer.stats().frames_coalesced.value(), 2u);
  EXPECT_EQ(framer.stats().frames_partial.value(), 0u);
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(StreamFramer, ReassemblesByteByByte) {
  StreamFramer framer;
  const Bytes msg = encode({9, EchoRequest{{1, 2, 3, 4}}});
  std::vector<Bytes> frames;
  for (const std::uint8_t byte : msg) {
    framer.feed(std::span<const std::uint8_t>(&byte, 1),
                [&frames](const Bytes& f) { frames.push_back(f); });
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], msg);
  EXPECT_EQ(framer.stats().frames_partial.value(), 1u);
  EXPECT_EQ(framer.stats().frames_coalesced.value(), 0u);
}

TEST(StreamFramer, ForeignVersionSkippedWholeKeepsAlignment) {
  StreamFramer framer;
  Bytes stream = wire(1);
  stream[0] = 0x04;  // OF 1.3 HELLO: well-framed, wrong version
  const Bytes valid = wire(2);
  stream.insert(stream.end(), valid.begin(), valid.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], valid);
  EXPECT_EQ(framer.stats().frames_bad.value(), 1u);
  EXPECT_EQ(framer.stats().frames_ok.value(), 1u);
}

TEST(StreamFramer, GarbagePrefixScansToNextValidHeader) {
  StreamFramer framer;
  Bytes stream(37, 0x00);  // version 0, length 0: unconditionally rejected
  const Bytes valid = wire(3);
  stream.insert(stream.end(), valid.begin(), valid.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], valid);
  // One contiguous scan run counts once, however many bytes it shed.
  EXPECT_EQ(framer.stats().frames_bad.value(), 1u);
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(StreamFramer, OversizedHeaderRejectedWithoutSwallowingTheStream) {
  StreamFramer framer({/*max_frame=*/64});
  Bytes stream = {kWireVersion, 0, 0xff, 0xff, 0, 0, 0, 1};  // claims 65535
  const Bytes valid = wire(4);
  stream.insert(stream.end(), valid.begin(), valid.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], valid);
  EXPECT_GE(framer.stats().frames_bad.value(), 1u);
}

TEST(StreamFramer, ResetDropsPartialFrame) {
  StreamFramer framer;
  const Bytes msg = encode({5, EchoRequest{{7, 7, 7}}});
  const auto none = collect(
      framer, std::span<const std::uint8_t>(msg.data(), msg.size() - 2));
  EXPECT_TRUE(none.empty());
  EXPECT_GT(framer.buffered(), 0u);

  framer.reset();  // reconnect: fresh stream
  EXPECT_EQ(framer.buffered(), 0u);
  const auto frames = collect(framer, msg);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], msg);
}

// ---------------------------------------------------------------------------
// Scenario: a seeded fig5-style home speaks framed OpenFlow end to end. Both
// devices bind, traffic flows both ways over the channel, and every message
// came through the framer cleanly.

struct ScenarioResult {
  std::map<std::string, double> scalars;
  std::size_t to_controller = 0;  // messages delivered, per direction
  std::size_t to_datapath = 0;
  bool bound = false;
};

ScenarioResult run_scenario() {
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);
  sim::EventLoop loop;
  Rng rng(2011);

  homework::HomeworkRouter::Config cfg;
  cfg.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  homework::HomeworkRouter router(loop, rng, cfg, registry);

  ScenarioResult out;
  router.connection().controller_end().set_tap(
      [&out](const Bytes&) { ++out.to_controller; });
  router.connection().datapath_end().set_tap(
      [&out](const Bytes&) { ++out.to_datapath; });

  sim::Host::Config hc;
  hc.name = "a";
  hc.mac = MacAddress::from_index(1);
  sim::Host a(loop, hc, rng);
  hc.name = "b";
  hc.mac = MacAddress::from_index(2);
  sim::Host b(loop, hc, rng);
  router.attach_device(a, std::nullopt);
  router.attach_device(b, std::nullopt);
  router.start();

  a.start_dhcp();
  loop.run_for(kSecond);
  b.start_dhcp();
  loop.run_for(kSecond);
  if (a.ip() && b.ip()) {
    out.bound = true;
    (void)a.send_udp(b.ip().value(), 40000, 7, 64);  // local flow setup
    loop.run_for(kSecond);
    (void)a.ping(cfg.router_ip, 1);
    loop.run_for(kSecond);
  }
  out.scalars = registry.scalars();
  return out;
}

TEST(StreamScenario, HomeSpeaksFramedOpenFlowBothWays) {
  const ScenarioResult home = run_scenario();

  ASSERT_TRUE(home.bound);
  EXPECT_GT(home.to_controller, 4u);  // HELLO/FEATURES + traffic
  EXPECT_GT(home.to_datapath, 4u);
  EXPECT_GT(home.scalars.at("openflow.channel.frames_ok"), 0.0);
  EXPECT_EQ(home.scalars.at("openflow.channel.frames_bad"), 0.0);
}

// ---------------------------------------------------------------------------
// Liveness under partial delivery: a stalled stream (bytes in flight frozen,
// possibly mid-frame under a tiny read ceiling) must cross the miss
// threshold, and a reconnect must resync the datapath's flows through the
// framed channel.

TEST(StreamLiveness, StalledStreamGoesDeadThenResyncsAfterReconnect) {
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);
  sim::EventLoop loop;
  Rng rng(7);

  homework::HomeworkRouter::Config cfg;
  cfg.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  cfg.channel_mtu = 5;  // every message arrives in partial reads
  cfg.liveness.probe_interval = kSecond;
  cfg.liveness.max_misses = 2;
  // This test exercises the legacy replay-resync through the framed channel
  // (the reconciler would instead prove the surviving table converged and
  // send nothing — covered by the reconcile/chaos suites).
  cfg.resync = homework::HomeworkRouter::Config::Resync::Replay;
  homework::HomeworkRouter router(loop, rng, cfg, registry);

  sim::Host::Config hc;
  hc.name = "a";
  hc.mac = MacAddress::from_index(1);
  sim::Host a(loop, hc, rng);
  router.attach_device(a, std::nullopt);
  router.start();
  a.start_dhcp();
  loop.run_for(2 * kSecond);
  ASSERT_TRUE(a.ip().has_value());

  StreamConnection& conn = router.connection();
  EXPECT_GT(
      conn.controller_channel().framer().stats().frames_partial.value(), 0u)
      << "tiny mtu must force reassembly from partial reads";

  std::vector<nox::DatapathId> dead;
  router.liveness().on_dead([&dead](nox::DatapathId d) { dead.push_back(d); });

  conn.link().stall();  // half-open: sends queue, nothing delivered
  loop.run_for(5 * kSecond);
  ASSERT_EQ(dead.size(), 1u) << "stalled stream must cross the miss threshold";
  EXPECT_EQ(dead[0], router.datapath().id());

  // Reconnect: the cut drops the frozen in-flight bytes (mid-frame), both
  // framers reset, and the liveness recovery replays every module's flows.
  conn.link().unstall();
  conn.disconnect();
  conn.reconnect();
  EXPECT_GT(conn.link().stats().cut_bytes.value(), 0u)
      << "the stall left bytes in flight for the cut to drop";
  loop.run_for(5 * kSecond);

  const nox::LivenessMonitor::PeerState* peer =
      router.liveness().peer(router.datapath().id());
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->alive);
  EXPECT_GT(router.controller().stats().resynced_flows.value(), 0u)
      << "recovery must replay module flow setup through the framed channel";
  EXPECT_GT(router.datapath().table().size(), 0u);
}

}  // namespace
}  // namespace hw::ofp
