// NOX controller framework: component dependency ordering, the OpenFlow
// handshake, ordered packet-in dispatch with Stop/Continue disposition, and
// the async stats/echo APIs — against a real Datapath over a real channel.
#include <gtest/gtest.h>

#include "net/packet.hpp"
#include "nox/controller.hpp"
#include "nox/liveness.hpp"
#include "openflow/datapath.hpp"
#include "openflow/stream_channel.hpp"

namespace hw::nox {
namespace {

class Recorder : public Component {
 public:
  Recorder(std::string name, std::vector<std::string>& log,
           std::vector<std::string> deps = {}, Disposition disposition = Disposition::Continue)
      : Component(std::move(name)), log_(log), deps_(std::move(deps)),
        disposition_(disposition) {}

  std::vector<std::string> dependencies() const override { return deps_; }

  void install(Controller& ctl) override {
    Component::install(ctl);
    log_.push_back("install:" + name());
  }
  void handle_datapath_join(DatapathId dpid, const ofp::FeaturesReply&) override {
    log_.push_back("join:" + name() + ":" + std::to_string(dpid));
  }
  Disposition handle_packet_in(const PacketInEvent& ev) override {
    log_.push_back("pktin:" + name() + ":" + std::to_string(ev.msg.in_port));
    return disposition_;
  }
  void handle_flow_removed(DatapathId, const ofp::FlowRemoved&) override {
    log_.push_back("flowrem:" + name());
  }

 private:
  std::vector<std::string>& log_;
  std::vector<std::string> deps_;
  Disposition disposition_;
};

TEST(ControllerComponents, InstallFollowsDependencyOrder) {
  sim::EventLoop loop;
  Controller ctl(loop);
  std::vector<std::string> log;
  ctl.add_component(std::make_unique<Recorder>("c", log,
                                               std::vector<std::string>{"b"}));
  ctl.add_component(std::make_unique<Recorder>("a", log));
  ctl.add_component(std::make_unique<Recorder>("b", log,
                                               std::vector<std::string>{"a"}));
  ctl.start();
  // "c" is registered first but depends on b which depends on a.
  EXPECT_EQ(log, (std::vector<std::string>{"install:a", "install:b", "install:c"}));
}

TEST(ControllerComponents, CycleThrows) {
  sim::EventLoop loop;
  Controller ctl(loop);
  std::vector<std::string> log;
  ctl.add_component(std::make_unique<Recorder>("a", log,
                                               std::vector<std::string>{"b"}));
  ctl.add_component(std::make_unique<Recorder>("b", log,
                                               std::vector<std::string>{"a"}));
  EXPECT_THROW(ctl.start(), std::runtime_error);
}

TEST(ControllerComponents, UnknownDependencyThrows) {
  sim::EventLoop loop;
  Controller ctl(loop);
  std::vector<std::string> log;
  ctl.add_component(std::make_unique<Recorder>("a", log,
                                               std::vector<std::string>{"ghost"}));
  EXPECT_THROW(ctl.start(), std::runtime_error);
}

TEST(ControllerComponents, LookupByNameAndType) {
  sim::EventLoop loop;
  Controller ctl(loop);
  std::vector<std::string> log;
  ctl.add_component(std::make_unique<Recorder>("a", log));
  ctl.start();
  EXPECT_NE(ctl.component("a"), nullptr);
  EXPECT_EQ(ctl.component("nope"), nullptr);
  EXPECT_NE(ctl.component_as<Recorder>("a"), nullptr);
}

struct HandshakeFixture : ::testing::Test {
  HandshakeFixture()
      : dp(loop, {.datapath_id = 7}), conn(loop), ctl(loop) {
    dp.add_port(1, "p1", MacAddress::from_index(1), &sink);
    dp.add_port(2, "p2", MacAddress::from_index(2), &sink2);
  }

  void connect_all() {
    ctl.start();
    dp.connect(conn.datapath_end());
    ctl.connect_datapath(conn.controller_end());
    loop.run_for(10 * kMillisecond);
  }

  class Collector final : public sim::FrameSink {
   public:
    void deliver(const Bytes& frame) override { frames.push_back(frame); }
    std::vector<Bytes> frames;
  };

  sim::EventLoop loop;
  Collector sink, sink2;
  ofp::Datapath dp;
  ofp::StreamConnection conn;
  Controller ctl;
  std::vector<std::string> log;
};

TEST_F(HandshakeFixture, DatapathJoinsAndAnnounces) {
  ctl.add_component(std::make_unique<Recorder>("mod", log));
  connect_all();
  EXPECT_TRUE(ctl.datapath_connected(7));
  ASSERT_EQ(ctl.datapaths().size(), 1u);
  const auto* features = ctl.features(7);
  ASSERT_NE(features, nullptr);
  EXPECT_EQ(features->ports.size(), 2u);
  EXPECT_EQ(log, (std::vector<std::string>{"install:mod", "join:mod:7"}));
}

TEST_F(HandshakeFixture, PacketInChainStopsAtConsumer) {
  ctl.add_component(std::make_unique<Recorder>("first", log,
                                               std::vector<std::string>{},
                                               Disposition::Stop));
  ctl.add_component(std::make_unique<Recorder>("second", log));
  connect_all();
  dp.receive_frame(1, net::build_udp(MacAddress::from_index(9),
                                     MacAddress::from_index(8),
                                     Ipv4Address{1, 1, 1, 1},
                                     Ipv4Address{2, 2, 2, 2}, 10, 20,
                                     Bytes(8, 0)));
  loop.run_for(10 * kMillisecond);
  // "second" never sees the packet.
  EXPECT_EQ(std::count(log.begin(), log.end(), "pktin:first:1"), 1);
  EXPECT_EQ(std::count_if(log.begin(), log.end(),
                          [](const std::string& s) {
                            return s.rfind("pktin:second", 0) == 0;
                          }),
            0);
  EXPECT_EQ(ctl.stats().packet_ins.value(), 1u);
}

TEST_F(HandshakeFixture, InstallFlowReachesDatapathTable) {
  connect_all();
  ofp::Match m = ofp::Match::any();
  m.with_dl_type(0x0800);
  ctl.install_flow(7, m, ofp::output_to(2), 0x7000, 5, 0);
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(dp.table().size(), 1u);
  EXPECT_EQ(ctl.stats().flow_mods.value(), 1u);

  ctl.delete_flows(7, ofp::Match::any());
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(dp.table().size(), 0u);
}

TEST_F(HandshakeFixture, PacketOutEgresses) {
  connect_all();
  ofp::PacketOut po;
  po.actions = ofp::output_to(2);
  po.data = net::build_udp(MacAddress::from_index(9), MacAddress::from_index(8),
                           Ipv4Address{1, 1, 1, 1}, Ipv4Address{2, 2, 2, 2}, 1,
                           2, Bytes(4, 0));
  ctl.send_packet_out(7, po);
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(sink2.frames.size(), 1u);
}

TEST_F(HandshakeFixture, AsyncStatsCallback) {
  connect_all();
  ofp::Match m = ofp::Match::any();
  ctl.install_flow(7, m, ofp::output_to(2));
  loop.run_for(10 * kMillisecond);

  bool fired = false;
  ofp::StatsRequest req;
  req.type = ofp::StatsType::Aggregate;
  req.body = ofp::FlowStatsRequest{};
  ctl.request_stats(7, req, [&](const ofp::StatsReply& reply) {
    fired = true;
    EXPECT_EQ(std::get<ofp::AggregateStatsReplyBody>(reply.body).flow_count, 1u);
  });
  loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST_F(HandshakeFixture, EchoRoundTrip) {
  connect_all();
  bool alive = false;
  ctl.send_echo(7, [&] { alive = true; });
  loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(alive);
}

TEST_F(HandshakeFixture, FlowRemovedReachesComponents) {
  ctl.add_component(std::make_unique<Recorder>("mod", log));
  connect_all();
  ofp::Match m = ofp::Match::any();
  m.with_dl_type(0x0800);
  ctl.install_flow(7, m, ofp::output_to(2), 0x7000, /*idle=*/1, 0,
                   /*notify_removal=*/true);
  loop.run_for(3 * kSecond);
  EXPECT_NE(std::find(log.begin(), log.end(), "flowrem:mod"), log.end());
  EXPECT_EQ(ctl.stats().flow_removed.value(), 1u);
}

TEST_F(HandshakeFixture, LivenessMonitorTracksRttAndDeath) {
  LivenessMonitor::Config lm_config;
  lm_config.probe_interval = kSecond;
  lm_config.max_misses = 2;
  auto monitor = std::make_unique<LivenessMonitor>(lm_config);
  LivenessMonitor* lm = monitor.get();
  ctl.add_component(std::move(monitor));
  connect_all();

  std::vector<DatapathId> dead, recovered;
  lm->on_dead([&](DatapathId d) { dead.push_back(d); });
  lm->on_recovered([&](DatapathId d) { recovered.push_back(d); });

  // Healthy channel: probes answered, peer alive, RTT measured.
  loop.run_for(5 * kSecond);
  const auto* peer = lm->peer(7);
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->alive);
  EXPECT_GT(peer->replies, 2u);
  EXPECT_EQ(peer->consecutive_misses, 0);
  EXPECT_TRUE(dead.empty());

  // Channel dies: misses accumulate, death fires exactly once.
  conn.disconnect();
  loop.run_for(10 * kSecond);
  EXPECT_FALSE(lm->peer(7)->alive);
  EXPECT_EQ(dead, (std::vector<DatapathId>{7}));
  EXPECT_TRUE(recovered.empty());
}

TEST_F(HandshakeFixture, LivenessReplyAfterDeclaredDeadResurrects) {
  LivenessMonitor::Config lm_config;
  lm_config.probe_interval = kSecond;
  lm_config.max_misses = 2;
  auto monitor = std::make_unique<LivenessMonitor>(lm_config);
  LivenessMonitor* lm = monitor.get();
  ctl.add_component(std::move(monitor));
  connect_all();

  std::vector<DatapathId> dead, recovered;
  lm->on_dead([&](DatapathId d) { dead.push_back(d); });
  lm->on_recovered([&](DatapathId d) { recovered.push_back(d); });

  conn.disconnect();
  loop.run_for(10 * kSecond);
  ASSERT_EQ(dead, (std::vector<DatapathId>{7}));
  ASSERT_FALSE(lm->peer(7)->alive);

  // The monitor keeps probing a dead peer; once the channel heals, the next
  // echo reply resurrects it and fires on_recovered exactly once.
  conn.reconnect();
  loop.run_for(3 * kSecond);
  EXPECT_TRUE(lm->peer(7)->alive);
  EXPECT_EQ(recovered, (std::vector<DatapathId>{7}));
  EXPECT_EQ(lm->peer(7)->consecutive_misses, 0);
  EXPECT_EQ(dead.size(), 1u);  // no second death event

  // Dying again after a recovery fires on_dead again (repeatable cycle).
  conn.disconnect();
  loop.run_for(10 * kSecond);
  EXPECT_EQ(dead, (std::vector<DatapathId>{7, 7}));
}

TEST_F(HandshakeFixture, LivenessMaxMissesOneFiresOnFirstConfirmedMiss) {
  LivenessMonitor::Config lm_config;
  lm_config.probe_interval = kSecond;
  lm_config.max_misses = 1;
  auto monitor = std::make_unique<LivenessMonitor>(lm_config);
  LivenessMonitor* lm = monitor.get();
  ctl.add_component(std::move(monitor));
  connect_all();

  std::vector<DatapathId> dead;
  lm->on_dead([&](DatapathId d) { dead.push_back(d); });

  conn.disconnect();
  // Probe round 1 (t≈1s) records the first miss; round 2 (t≈2s) confirms it
  // — consecutive_misses becomes 2 > max_misses — and must fire there, not a
  // round later.
  loop.run_for(kSecond + 100 * kMillisecond);
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(lm->peer(7)->consecutive_misses, 1);
  loop.run_for(kSecond);
  EXPECT_EQ(dead, (std::vector<DatapathId>{7}));
  EXPECT_FALSE(lm->peer(7)->alive);
}

TEST_F(HandshakeFixture, BarrierCallbackFiresAfterRoundTrip) {
  connect_all();
  bool confirmed = false;
  ctl.send_barrier(7, [&] { confirmed = true; });
  EXPECT_FALSE(confirmed);  // needs the datapath's BarrierReply
  loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(confirmed);
}

/// Installs one table-setup flow on every datapath join, the way the real
/// modules (DHCP, DNS, forwarding) do — re-sync must replay it.
class FlowOnJoin final : public Component {
 public:
  FlowOnJoin() : Component("flow-on-join") {}
  void handle_datapath_join(DatapathId dpid, const ofp::FeaturesReply&) override {
    ofp::Match m = ofp::Match::any();
    m.with_dl_type(0x0800);
    controller().install_flow(dpid, m, ofp::output_to(2), 0x7000);
  }
};

TEST_F(HandshakeFixture, ResyncAfterChannelOutageReinstallsFlows) {
  ctl.add_component(std::make_unique<Recorder>("mod", log));
  ctl.add_component(std::make_unique<FlowOnJoin>());
  connect_all();
  ASSERT_EQ(dp.table().size(), 1u);

  // Sever the channel and wipe the table behind the controller's back.
  conn.disconnect();
  dp.restart();  // volatile state gone; HELLO queued into a dead channel
  ASSERT_EQ(dp.table().size(), 0u);

  std::vector<DatapathId> resynced;
  ctl.on_resynced([&](DatapathId d) { resynced.push_back(d); });
  const auto resynced_flows_before = ctl.stats().resynced_flows.value();

  conn.reconnect();
  ctl.resync_datapath(7);
  loop.run_for(100 * kMillisecond);

  // The rejoin replayed every component's datapath-join flow setup and the
  // barrier confirmed it landed in the table.
  EXPECT_EQ(resynced, (std::vector<DatapathId>{7}));
  EXPECT_GE(ctl.stats().reconnects.value(), 1u);
  EXPECT_GT(ctl.stats().resynced_flows.value(), resynced_flows_before);
  EXPECT_EQ(dp.table().size(), 1u);
  EXPECT_EQ(std::count(log.begin(), log.end(), "join:mod:7"), 2);
}

TEST_F(HandshakeFixture, HelloOnIdentifiedChannelTriggersResync) {
  connect_all();
  std::vector<DatapathId> resynced;
  ctl.on_resynced([&](DatapathId d) { resynced.push_back(d); });

  // A datapath restart on a live channel re-sends HELLO; the controller must
  // treat that as "peer lost its state" and drive a re-sync on its own.
  dp.restart();
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(resynced, (std::vector<DatapathId>{7}));
  EXPECT_GE(ctl.stats().reconnects.value(), 1u);
}

TEST_F(HandshakeFixture, ResyncForUnknownDatapathIsCountedAndRearmed) {
  ctl.add_component(std::make_unique<FlowOnJoin>());

  // Nothing has identified yet: the resync request cannot be served. It must
  // not vanish silently — it is counted and re-armed.
  ASSERT_EQ(ctl.stats().resync_skipped.value(), 0u);
  ctl.resync_datapath(7);
  EXPECT_EQ(ctl.stats().resync_skipped.value(), 1u);

  // When dpid 7 finally identifies, the armed request upgrades the fresh
  // join into a full re-sync: on_resynced fires even though this connection
  // never dropped.
  std::vector<DatapathId> resynced;
  ctl.on_resynced([&](DatapathId d) { resynced.push_back(d); });
  connect_all();
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(resynced, (std::vector<DatapathId>{7}));
  EXPECT_GT(ctl.stats().resynced_flows.value(), 0u);
  EXPECT_EQ(dp.table().size(), 1u);

  // The armed request was consumed: a second request for a now-known dpid
  // is served immediately and does not bump the skip counter.
  ctl.resync_datapath(7);
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(ctl.stats().resync_skipped.value(), 1u);
  EXPECT_EQ(resynced, (std::vector<DatapathId>{7, 7}));
}

TEST_F(HandshakeFixture, SendToUnknownDatapathIsSafe) {
  connect_all();
  ctl.install_flow(999, ofp::Match::any(), ofp::output_to(1));
  ctl.send_packet_out(999, {});
  ctl.request_stats(999, {}, [](const ofp::StatsReply&) { FAIL(); });
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(ctl.stats().flow_mods.value(), 0u);
}

}  // namespace
}  // namespace hw::nox
