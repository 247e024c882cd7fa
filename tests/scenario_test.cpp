// Adversarial scenario suite: the five seeded hostile workloads run green,
// replay bit-identically per seed, compose with chaos fault plans, and the
// TableFull/microflow promises hold under randomized hostile interleavings.
#include <gtest/gtest.h>

#include <deque>

#include <map>
#include <string>

#include "net/packet.hpp"
#include "openflow/stream_channel.hpp"
#include "openflow/datapath.hpp"
#include "openflow/flow_table.hpp"
#include "scenario/dhcp_starvation.hpp"
#include "scenario/guest_churn.hpp"
#include "scenario/iot_swarm.hpp"
#include "scenario/roaming.hpp"
#include "scenario/table_exhaustion.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"

namespace hw {
namespace {

using scenario::Report;

/// Runs a scenario under a fresh registry; returns its report plus the
/// home-side scalar fingerprint (non-histogram, the deterministic view).
template <typename S>
std::pair<Report, std::map<std::string, double>> run_scoped(
    typename S::Config config = S::default_config()) {
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);
  S s(config);
  Report report = s.run();
  return {std::move(report), registry.scalars()};
}

// -- The five scenarios, green at their default seed -------------------------

TEST(ScenarioGreen, DhcpStarvation) {
  auto [report, scalars] = run_scoped<scenario::DhcpStarvationScenario>(
      scenario::Scenario::Config{});
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.attack_events, 1000u);
  EXPECT_GT(report.attack_rate(), 0.0);
  ASSERT_EQ(report.recovery_samples.size(), 3u);  // the three late joiners
  EXPECT_LE(report.recovery_p50(), report.recovery_p99());
  EXPECT_GT(scalars.count("homework.dhcp.pool_exhausted"), 0u);
}

TEST(ScenarioGreen, TableExhaustion) {
  auto [report, scalars] = run_scoped<scenario::TableExhaustionScenario>();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.attack_events, 1000u);
  EXPECT_FALSE(report.recovery_samples.empty());  // post-attack echo probes
  (void)scalars;
}

TEST(ScenarioGreen, IotSwarm) {
  auto [report, scalars] = run_scoped<scenario::IotSwarmScenario>();
  EXPECT_TRUE(report.ok()) << report.to_string();
  const auto& params = scenario::IotSwarmScenario::Params{};
  EXPECT_EQ(report.recovery_samples.size(), params.devices);  // bind latencies
  (void)scalars;
}

TEST(ScenarioGreen, GuestChurn) {
  auto [report, scalars] = run_scoped<scenario::GuestChurnScenario>();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.recovery_samples.size(), 18u);  // permit→bind per guest
  (void)scalars;
}

TEST(ScenarioGreen, RoamingFleet) {
  auto [report, scalars] = run_scoped<scenario::RoamingScenario>();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.recovery_samples.size(), 4u);  // one rebind per pair
  (void)scalars;
}

// -- Seed determinism: same seed, same fingerprint ---------------------------

TEST(ScenarioDeterminism, DhcpStarvationReplaysBitIdentically) {
  scenario::Scenario::Config config;
  config.seed = 4242;
  auto [r1, f1] = run_scoped<scenario::DhcpStarvationScenario>(config);
  auto [r2, f2] = run_scoped<scenario::DhcpStarvationScenario>(config);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_EQ(r1.attack_events, r2.attack_events);
  EXPECT_EQ(r1.recovery_samples, r2.recovery_samples);
  EXPECT_EQ(f1, f2);
}

TEST(ScenarioDeterminism, GuestChurnReplaysBitIdentically) {
  auto config = scenario::GuestChurnScenario::default_config();
  config.seed = 99;
  auto [r1, f1] = run_scoped<scenario::GuestChurnScenario>(config);
  auto [r2, f2] = run_scoped<scenario::GuestChurnScenario>(config);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_EQ(r1.recovery_samples, r2.recovery_samples);
  EXPECT_EQ(f1, f2);
}

// -- Chaos composition: the attack under a PR 3 fault plan -------------------

TEST(ScenarioChaos, DhcpStarvationSurvivesFaultPlan) {
  scenario::Scenario::Config config;
  config.seed = 7;
  sim::FaultPlan plan;
  plan.seed = 77;
  sim::FaultWindow loss1;
  loss1.kind = sim::FaultKind::LinkLoss;
  loss1.start = 3 * kSecond;
  loss1.duration = 2 * kSecond;
  loss1.loss = 0.3;
  plan.windows.push_back(loss1);
  sim::FaultWindow outage;
  outage.kind = sim::FaultKind::ControllerOutage;
  outage.start = 6 * kSecond;
  outage.duration = 2 * kSecond;
  plan.windows.push_back(outage);
  sim::FaultWindow loss2;
  loss2.kind = sim::FaultKind::LinkLoss;
  loss2.start = 11 * kSecond;
  loss2.duration = 2 * kSecond;
  loss2.loss = 0.2;
  plan.windows.push_back(loss2);
  config.faults = plan;

  auto [report, scalars] = run_scoped<scenario::DhcpStarvationScenario>(config);
  EXPECT_TRUE(report.ok()) << report.to_string();
  // The chaos actually ran: the injector opened and closed its windows.
  EXPECT_EQ(scalars["sim.fault.windows_started"], 3.0);
  EXPECT_EQ(scalars["sim.fault.windows_ended"], 3.0);
}

// -- TableFull property suite ------------------------------------------------

ofp::Match hostile_match(Rng& rng) {
  ofp::Match m = ofp::Match::any();
  m.with_dl_type(0x0800)
      .with_nw_dst(Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(
                                             rng.uniform(48))})
      .with_tp_dst(static_cast<std::uint16_t>(1000 + rng.uniform(48)));
  return m;
}

ofp::Match exact_probe(Ipv4Address dst, std::uint16_t tp_dst) {
  ofp::Match m;
  m.wildcards = 0;
  m.in_port = 1;
  m.dl_src = MacAddress::from_index(1);
  m.dl_dst = MacAddress::from_index(2);
  m.dl_vlan = 0xffff;
  m.dl_type = 0x0800;
  m.nw_proto = 17;
  m.nw_src = Ipv4Address{192, 168, 1, 100};
  m.nw_dst = dst;
  m.tp_src = 40000;
  m.tp_dst = tp_dst;
  return m;
}

TEST(TableFullProperty, CapacityHoldsUnderHostileInterleavings) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    telemetry::MetricRegistry registry;
    telemetry::ScopedMetricRegistry scoped(registry);
    Rng rng(seed);
    ofp::FlowTable table(24);
    Timestamp now = 0;
    std::uint64_t rejections = 0;
    for (int op = 0; op < 3000; ++op) {
      now += rng.uniform(800 * kMillisecond);
      const auto roll = rng.uniform(100);
      if (roll < 60) {
        ofp::FlowMod add;
        add.match = hostile_match(rng);
        add.idle_timeout = static_cast<std::uint16_t>(1 + rng.uniform(5));
        add.actions = ofp::output_to(1);
        const auto result = table.apply(add, now);
        if (result == ofp::FlowModResult::TableFull) {
          ++rejections;
          // A rejection only ever happens with the table exactly full.
          ASSERT_EQ(table.size(), table.capacity()) << "seed " << seed;
        }
      } else if (roll < 80) {
        table.expire(now, /*suspend_idle=*/rng.chance(0.25));
      } else if (roll < 90) {
        ofp::FlowMod del;
        del.command = ofp::FlowModCommand::Delete;
        del.match = hostile_match(rng);
        table.apply(del, now);
      } else {
        table.lookup(
            exact_probe(Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(
                                                  rng.uniform(48))},
                        static_cast<std::uint16_t>(1000 + rng.uniform(48))),
            now, 64);
      }
      ASSERT_LE(table.size(), table.capacity()) << "seed " << seed;
    }
    EXPECT_GT(rejections, 0u) << "seed " << seed;
    EXPECT_EQ(table.stats().table_full.value(), rejections) << "seed " << seed;
  }
}

TEST(TableFullProperty, EveryRejectionAnswersAllTablesFull) {
  sim::EventLoop loop;
  ofp::Datapath dp(loop, {.datapath_id = 1, .table_capacity = 8});
  ofp::StreamConnection conn(loop);
  // A decoded PacketIn views its frame, which the channel reuses after the
  // dispatch: the envelopes view kept copies.
  std::deque<Bytes> frames;
  std::vector<ofp::Envelope> received;
  conn.controller_end().on_receive([&](const Bytes& encoded) {
    auto env = ofp::decode(frames.emplace_back(encoded));
    ASSERT_TRUE(env.ok());
    received.push_back(std::move(env).take());
  });
  dp.connect(conn.datapath_end());
  loop.run_for(kMillisecond);

  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    ofp::FlowMod add;
    add.match = ofp::Match::any();
    add.match.with_tp_dst(static_cast<std::uint16_t>(2000 + i));
    add.actions = ofp::output_to(1);
    conn.controller_end().send(
        ofp::encode({static_cast<std::uint32_t>(100 + i), std::move(add)}));
    if (rng.chance(0.3)) loop.run_for(kMillisecond);
  }
  loop.run_for(kMillisecond);

  std::uint64_t errors = 0;
  for (const auto& env : received) {
    if (const auto* err = std::get_if<ofp::ErrorMsg>(&env.msg)) {
      ++errors;
      EXPECT_EQ(err->type, ofp::ErrorType::FlowModFailed);
      EXPECT_EQ(err->code, 0u);  // OFPFMFC_ALL_TABLES_FULL
    }
  }
  EXPECT_EQ(dp.table().size(), 8u);
  EXPECT_EQ(errors, 64u - 8u);
  EXPECT_EQ(dp.table().stats().table_full.value(), errors);
}

TEST(TableFullProperty, MicroflowNeverServesEvictedFlow) {
  sim::EventLoop loop;
  ofp::Datapath dp(loop, {.datapath_id = 1, .table_capacity = 4});
  ofp::StreamConnection conn(loop);
  // A decoded PacketIn views its frame, which the channel reuses after the
  // dispatch: the envelopes view kept copies.
  std::deque<Bytes> frames;
  std::vector<ofp::Envelope> received;
  conn.controller_end().on_receive([&](const Bytes& encoded) {
    auto env = ofp::decode(frames.emplace_back(encoded));
    ASSERT_TRUE(env.ok());
    received.push_back(std::move(env).take());
  });
  class Collector final : public sim::FrameSink {
   public:
    void deliver(const Bytes& frame) override { frames.push_back(frame); }
    std::vector<Bytes> frames;
  } out1, out2;
  dp.add_port(1, "p1", MacAddress::from_index(0xa1), &out1);
  dp.add_port(2, "p2", MacAddress::from_index(0xa2), &out2);
  dp.connect(conn.datapath_end());
  loop.run_for(kMillisecond);

  // Install a short-idle rule, warm the microflow cache with it, then let
  // hostile-churn expiry evict it: the cached handle must die with it.
  ofp::FlowMod add;
  add.match = ofp::Match::any();
  add.match.with_tp_dst(7777);
  add.idle_timeout = 1;
  add.actions = ofp::output_to(2);
  conn.controller_end().send(ofp::encode({5, std::move(add)}));
  loop.run_for(kMillisecond);

  const Bytes frame =
      net::build_udp(MacAddress::from_index(1), MacAddress::from_index(2),
                     Ipv4Address{192, 168, 1, 100}, Ipv4Address{10, 1, 1, 1},
                     1234, 7777, Bytes(32, 0));
  dp.receive_frame(1, frame);  // classifier hit, cached
  dp.receive_frame(1, frame);  // microflow hit
  loop.run_for(kMillisecond);
  ASSERT_EQ(out2.frames.size(), 2u);
  EXPECT_GE(dp.stats().microflow_hits.value(), 1u);

  loop.run_for(3 * kSecond);  // idle expiry sweeps the rule out
  const std::size_t packet_ins_before = [&] {
    std::size_t n = 0;
    for (const auto& env : received) {
      if (std::get_if<ofp::PacketIn>(&env.msg) != nullptr) ++n;
    }
    return n;
  }();

  dp.receive_frame(1, frame);
  loop.run_for(kMillisecond);
  // Not forwarded from a stale cache handle: the frame missed and went to
  // the controller instead.
  EXPECT_EQ(out2.frames.size(), 2u);
  std::size_t packet_ins_after = 0;
  for (const auto& env : received) {
    if (std::get_if<ofp::PacketIn>(&env.msg) != nullptr) ++packet_ins_after;
  }
  EXPECT_EQ(packet_ins_after, packet_ins_before + 1);
  EXPECT_GE(dp.stats().microflow_invalidations.value(), 1u);
}

// -- spoofed_discover frame shape -------------------------------------------

TEST(SpoofedDiscover, ParsesAsBroadcastDhcp) {
  const auto mac = MacAddress::from_index(0x123456);
  const Bytes frame = scenario::spoofed_discover(mac, 0xabcd, "evil");
  const auto parsed = net::ParsedPacket::parse(frame);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().eth.src, mac);
  EXPECT_TRUE(parsed.value().eth.dst.is_broadcast());
}

}  // namespace
}  // namespace hw
