// The live operations plane: barrier-stepped fleet determinism (including
// run-to-completion fleets with apps on and under seeded per-home fault
// schedules), fleet-wide consistent checkpoints with time-travel replay,
// control mutations landing on deterministic barriers, and the operator
// streaming path (subscribe / delta frames / backpressure / retried-request
// idempotency) end to end against a running fleet.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "live/client.hpp"
#include "live/fleet.hpp"
#include "live/mutation.hpp"
#include "live/server.hpp"
#include "sim/fault_injector.hpp"
#include "util/rand.hpp"

namespace hw::live {
namespace {

constexpr Duration kBootSettle = 10 * kMillisecond;  // router boot settle

LiveConfig attack_config(std::size_t homes, std::size_t threads) {
  LiveConfig cfg;
  cfg.homes = homes;
  cfg.threads = threads;
  cfg.seed = 7;
  cfg.attack.kind = LiveAttack::Kind::DhcpFlood;
  cfg.attack.home = 0;
  return cfg;
}

/// Differing series between two fingerprints, for readable failures (gtest's
/// container printer truncates long maps).
std::string diff_maps(const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b) {
  std::string out;
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      out += name + ": " + std::to_string(value) + " vs <absent>\n";
    } else if (value != it->second) {
      out += name + ": " + std::to_string(value) + " vs " +
             std::to_string(it->second) + "\n";
    }
  }
  for (const auto& [name, value] : b) {
    if (a.count(name) == 0) {
      out += name + ": <absent> vs " + std::to_string(value) + "\n";
    }
  }
  return out;
}

telemetry::ScalarMap filtered(const std::map<std::string, double>& scalars,
                              const std::string& pattern) {
  telemetry::ScalarMap out;
  for (const auto& [name, value] : scalars) {
    if (LiveServer::series_matches(pattern, name)) out.emplace(name, value);
  }
  return out;
}

// ---------------------------------------------------------------------------
// LiveFleet: determinism and time travel

/// Builds `cfg` at 1, 2 and 8 worker threads, starts it, runs `drive` and
/// requires one fingerprint from all three.
void expect_fingerprint_thread_invariant(
    LiveConfig cfg, const std::function<void(LiveFleet&)>& drive) {
  std::map<std::string, double> first;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    LiveFleet fleet(cfg);
    fleet.start();
    drive(fleet);
    const auto fp = fleet.fingerprint();
    if (threads == 1) {
      first = fp;
      EXPECT_FALSE(first.empty());
    } else {
      EXPECT_TRUE(fp == first) << threads << " threads diverged:\n"
                               << diff_maps(fp, first);
    }
  }
}

TEST(LiveFleet, StepDeterminismAcrossThreads) {
  expect_fingerprint_thread_invariant(
      attack_config(4, 1), [](LiveFleet& f) { f.advance_to(4 * kSecond); });
}

/// Independent homes with their app mixes running: the paper's one Figure 5
/// stack per household, many households.
LiveConfig app_fleet(std::size_t homes) {
  LiveConfig cfg;
  cfg.homes = homes;
  cfg.seed = 2011;  // the paper's year; any value works
  cfg.run_apps = true;
  return cfg;
}

/// Every home ends with its three devices bound and flows installed.
void expect_all_bound(const LiveFleet& fleet) {
  for (std::uint32_t h = 0; h < fleet.config().homes; ++h) {
    const LiveHomeStatus st = fleet.status(h);
    EXPECT_EQ(st.devices, 3u) << "home " << h;
    EXPECT_EQ(st.devices_bound, st.devices) << "home " << h;
    EXPECT_GT(st.flow_entries, 0u) << "home " << h;
  }
}

/// One apps-on home run to 10 s on a single worker.
std::unique_ptr<LiveFleet> run_single_home() {
  auto fleet = std::make_unique<LiveFleet>(app_fleet(1));
  fleet->start();
  fleet->advance_to(10 * kSecond);
  return fleet;
}

TEST(FleetHome, SingleHomeBindsServesAndInsertsExactlyOnce) {
  const auto fleet = run_single_home();
  expect_all_bound(*fleet);
  const auto sc = fleet->scalars(0);
  EXPECT_EQ(sc.at("openflow.datapath.fail_safe"), 0.0);
  // The home's registry carried the whole stack's instruments.
  EXPECT_GT(sc.at("homework.dhcp.acks"), 0.0);
  EXPECT_GT(sc.at("openflow.datapath.packet_ins"), 0.0);
  EXPECT_GT(sc.at("sim.link.tx_frames"), 0.0);
  // The home's exports land in its own hwdb in process: no transport can
  // drop or duplicate them, so every insert must apply without error.
  EXPECT_GT(sc.at("hwdb.database.inserts"), 0.0);
  EXPECT_EQ(sc.at("hwdb.database.insert_errors"), 0.0);
}

TEST(FleetHome, SameHomeReplaysIdentically) {
  const auto a = run_single_home();
  const auto b = run_single_home();
  const auto sa = a->scalars(0);
  const auto sb = b->scalars(0);
  EXPECT_TRUE(sa == sb) << diff_maps(sa, sb);
  EXPECT_EQ(a->status(0).devices_bound, b->status(0).devices_bound);
  EXPECT_EQ(a->status(0).flow_entries, b->status(0).flow_entries);
}

// Run to completion with apps on: every home converges, and the merged
// telemetry is bit-identical at any worker-pool size.
TEST(FleetDeterminism, ThreadCountNeverChangesTheMergedTelemetry) {
  expect_fingerprint_thread_invariant(app_fleet(8), [](LiveFleet& fleet) {
    fleet.advance_to(10 * kSecond);
    expect_all_bound(fleet);
  });
}

/// A seeded 30 s fault schedule for one home: a lossy-links window for
/// every home; some also get a controller outage, a datapath cold restart
/// or a crash that restores the flow table. Every window closes by 23 s.
std::vector<sim::FaultWindow> chaos_windows(std::uint64_t seed) {
  std::uint64_t s = seed ^ 0xda3e39cb94b95bdbULL;
  const Timestamp loss_at = 2 * kSecond + splitmix64(s) % (3 * kSecond);
  const Duration loss_len = 2 * kSecond + splitmix64(s) % (3 * kSecond);
  const double loss = 0.15 + static_cast<double>(splitmix64(s) % 20) / 100.0;
  std::vector<sim::FaultWindow> windows{
      {sim::FaultKind::LinkLoss, loss_at, loss_len, "*", loss, {}}};
  if (splitmix64(s) % 2 == 0) {
    const Timestamp at = 10 * kSecond + splitmix64(s) % (2 * kSecond);
    windows.push_back(
        {sim::FaultKind::ControllerOutage, at, 3 * kSecond, "*", 0.0, {}});
  }
  const std::uint64_t late = splitmix64(s) % 4;
  if (late == 0) {
    windows.push_back(
        {sim::FaultKind::DatapathRestart, 20 * kSecond, 0, "*", 0.0, {}});
  } else if (late == 1) {
    windows.push_back(
        {sim::FaultKind::CrashRestartRestore, 22 * kSecond, 0, "*", 0.0, {}});
  }
  return windows;
}

TEST(FleetSeeds, ChaosPlansVaryAcrossHomesAndFitTheRun) {
  LiveFleet fleet(app_fleet(1));
  fleet.start();
  const Timestamp first_barrier = fleet.next_barrier();
  std::set<std::size_t> window_counts;
  std::set<Timestamp> loss_starts;
  for (std::uint32_t h = 0; h < 32; ++h) {
    const auto windows =
        chaos_windows(residency::FleetProfile::home_seed(2011, h));
    ASSERT_FALSE(windows.empty());
    window_counts.insert(windows.size());
    loss_starts.insert(windows.front().start);
    for (const sim::FaultWindow& w : windows) {
      EXPECT_GT(w.start, first_barrier) << "window precedes the first step";
      EXPECT_LT(w.start + w.duration, 30 * kSecond) << "window outlives the run";
    }
  }
  // Distinct per-home schedules: shapes and placements actually vary.
  EXPECT_GT(window_counts.size(), 1u);
  EXPECT_GT(loss_starts.size(), 4u);
}

// Every home runs its own seeded fault schedule, submitted as inject_fault
// mutations before the first step. Every home recovers, and the merged
// telemetry is still bit-identical at any worker-pool size.
TEST(FleetDeterminism, ChaosFleetIsDeterministicToo) {
  expect_fingerprint_thread_invariant(app_fleet(6), [](LiveFleet& fleet) {
    const Timestamp barrier = fleet.next_barrier();
    for (std::uint32_t h = 0; h < 6; ++h) {
      const auto seed = residency::FleetProfile::home_seed(2011, h);
      for (const sim::FaultWindow& w : chaos_windows(seed)) {
        fleet.submit(inject_fault(h, sim::to_string(w.kind), w.loss,
                                  w.start - barrier, w.duration));
      }
    }
    fleet.advance_to(30 * kSecond);
    expect_all_bound(fleet);

    std::set<std::vector<double>> fault_mix;
    for (std::uint32_t h = 0; h < 6; ++h) {
      const auto sc = fleet.scalars(h);
      const double started = sc.at("sim.fault.windows_started");
      EXPECT_GT(started, 0.0) << "home " << h;
      EXPECT_EQ(started, sc.at("sim.fault.windows_ended")) << "home " << h;
      EXPECT_EQ(sc.at("openflow.datapath.fail_safe"), 0.0) << "home " << h;
      fault_mix.insert({started, sc.at("sim.fault.controller_outages"),
                        sc.at("sim.fault.datapath_restarts"),
                        sc.at("sim.fault.crash_restores")});
    }
    EXPECT_GT(fault_mix.size(), 1u) << "fault schedules did not vary";
  });
}

TEST(LiveFleet, BarriersAndCheckpointGrid) {
  LiveFleet fleet(attack_config(2, 1));
  fleet.start();
  EXPECT_EQ(fleet.now(), kBootSettle);
  EXPECT_EQ(fleet.next_barrier(), kBootSettle + 250 * kMillisecond);
  EXPECT_EQ(fleet.next_checkpoint_barrier(), kBootSettle + 5 * kSecond);
  fleet.step();
  EXPECT_EQ(fleet.now(), kBootSettle + 250 * kMillisecond);

  // A checkpoint lands on the aligned grid, not the next barrier.
  const Mutation predicted = fleet.submit(checkpoint());
  EXPECT_EQ(predicted.applied_at, kBootSettle + 5 * kSecond);
  fleet.advance_to(kBootSettle + 5 * kSecond);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);
  EXPECT_EQ(fleet.checkpoints()[0].captured_at, kBootSettle + 5 * kSecond);
  EXPECT_EQ(fleet.checkpoints()[0].images.size(), 2u);
}

// The acceptance test: restore a mid-attack fleet checkpoint, re-apply the
// recorded mutation tail (which includes a quarantine), and the replica's
// non-histogram telemetry is bit-identical to the live run's — at 1, 2 and
// 8 worker threads.
TEST(LiveFleet, CheckpointReplayBitIdentical) {
  const LiveConfig cfg = attack_config(4, 2);
  LiveFleet fleet(cfg);
  fleet.start();
  fleet.advance_to(4 * kSecond);  // attack under way since 3.013 s

  fleet.submit(checkpoint());
  fleet.advance_to(5 * kSecond + kBootSettle);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);

  // Mutate the run after the capture so the replay tail is non-trivial.
  const std::string guest = fleet.device_mac(0, "guest");
  ASSERT_FALSE(guest.empty());
  fleet.submit(quarantine(0, guest));
  fleet.advance_to(8 * kSecond);

  const auto live_fp = fleet.fingerprint();
  ASSERT_GT(live_fp.count("live.home.attack_sent"), 0u);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto replayed = LiveFleet::replay_fingerprint(
        cfg, fleet.checkpoints()[0], fleet.log(), fleet.now(), threads);
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_TRUE(replayed.value() == live_fp)
        << "replay tail diverged at " << threads
        << " threads:\n" << diff_maps(replayed.value(), live_fp);
  }
}

// A fault injected after the checkpoint severs one home's framed secure
// channel mid-stream; the replay tail re-applies it and lands on the same
// telemetry as the live run, at 1, 2 and 8 worker threads.
TEST(LiveFleet, InjectedControllerOutageReplaysBitIdentical) {
  const LiveConfig cfg = attack_config(2, 2);
  LiveFleet fleet(cfg);
  fleet.start();
  fleet.advance_to(4 * kSecond);
  fleet.submit(checkpoint());
  fleet.advance_to(5 * kSecond + kBootSettle);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);

  fleet.submit(inject_fault(1, "controller-outage", 0.0,
                            130 * kMillisecond, 4 * kSecond));
  fleet.advance_to(11 * kSecond);

  EXPECT_EQ(fleet.scalars(1).at("sim.fault.controller_outages"), 1.0);
  EXPECT_EQ(fleet.scalars(0).at("sim.fault.controller_outages"), 0.0);
  EXPECT_GE(fleet.scalars(1).at("nox.channel.reconnects"), 1.0);

  const auto live_fp = fleet.fingerprint();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    auto replayed = LiveFleet::replay_fingerprint(
        cfg, fleet.checkpoints()[0], fleet.log(), fleet.now(), threads);
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_TRUE(replayed.value() == live_fp)
        << "replay tail diverged at " << threads
        << " threads:\n" << diff_maps(replayed.value(), live_fp);
  }
}

// Time travel as a what-if instrument: re-run the tail with an *earlier*
// quarantine than the live run had, and the attack is measurably blunted.
TEST(LiveFleet, WhatIfEarlierQuarantineDiverges) {
  const LiveConfig cfg = attack_config(2, 2);
  LiveFleet fleet(cfg);
  fleet.start();
  fleet.advance_to(4 * kSecond);
  fleet.submit(checkpoint());
  fleet.advance_to(5 * kSecond + kBootSettle);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);
  fleet.advance_to(8 * kSecond);  // live run: never quarantined
  const auto live_fp = fleet.fingerprint();
  const std::uint64_t live_drops = fleet.status(0).block_drops;

  // What-if tail: quarantine the attacker right after the checkpoint.
  const std::string guest = fleet.device_mac(0, "guest");
  ASSERT_FALSE(guest.empty());
  std::vector<Mutation> log = fleet.log();
  std::uint64_t max_id = 0;
  for (const Mutation& m : log) max_id = std::max(max_id, m.id);
  Mutation what_if = quarantine(0, guest);
  what_if.id = max_id + 1;
  what_if.applied_at = 5 * kSecond + kBootSettle + 250 * kMillisecond;
  log.push_back(what_if);

  auto replayed = LiveFleet::replay_fingerprint(
      cfg, fleet.checkpoints()[0], log, fleet.now(), 1);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_NE(replayed.value(), live_fp);
  // The diverging run actually enforced the block: drops where the live run
  // had none on the block flows.
  EXPECT_EQ(live_drops, 0u);
  EXPECT_GT(replayed.value().at("live.home.block_drops"), 0.0);
  EXPECT_GT(replayed.value().at("live.home.block_flows"), 0.0);
}

TEST(LiveFleet, ResumeRejectsStitchedCaptures) {
  const LiveConfig cfg = attack_config(2, 1);
  LiveFleet fleet(cfg);
  fleet.start();
  fleet.submit(checkpoint());
  fleet.advance_to(5 * kSecond + kBootSettle);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);

  FleetCheckpoint stitched = fleet.checkpoints()[0];
  std::swap(stitched.images[0], stitched.images[1]);
  LiveFleet replica(cfg);
  const Status s = replica.resume(stitched, {});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("capture tag mismatch"), std::string::npos)
      << s.error().message;
}

// ---------------------------------------------------------------------------
// Operator plane end to end (InProcLiveLink: client <-> LiveServer <-> fleet)

struct LiveLinkFixture : ::testing::Test {
  LiveLinkFixture()
      : fleet(attack_config(2, 2)), link(op_loop, fleet) {
    fleet.start();
  }

  LiveClient& make_client() {
    hwdb::rpc::RetryPolicy policy;
    policy.max_attempts = 5;
    policy.timeout = 50 * kMillisecond;
    policy.backoff_base = 10 * kMillisecond;
    clients.push_back(std::make_unique<LiveClient>(link.make_client(policy)));
    return *clients.back();
  }

  /// One operator tick: advance the fleet a barrier, then deliver the
  /// resulting datagrams (and any client requests) on the operator loop.
  void pump() {
    link.server().pump();
    op_loop.run_for(10 * kMillisecond);
  }

  std::uint64_t subscribe(LiveClient& client, const std::string& pattern,
                          std::uint32_t home, std::uint32_t max_queue = 64) {
    std::uint64_t sub_id = 0;
    client.subscribe_series(pattern, home, 1, max_queue,
                            [&](Result<std::uint64_t> r) {
                              ASSERT_TRUE(r.ok()) << r.error().message;
                              sub_id = r.value();
                            });
    op_loop.run_for(10 * kMillisecond);
    return sub_id;
  }

  sim::EventLoop op_loop;
  LiveFleet fleet;
  InProcLiveLink link;
  std::vector<std::unique_ptr<LiveClient>> clients;
};

// The headline demo: a live client subscribes, watches attack telemetry
// move, and issues a quarantine that measurably changes the outcome of the
// still-running fleet.
TEST_F(LiveLinkFixture, MutationMeasurablyChangesOutcome) {
  LiveClient& client = make_client();
  const std::uint64_t sub_id = subscribe(client, "live.home.*", 0);
  ASSERT_NE(sub_id, 0u);

  while (fleet.now() < 4 * kSecond) pump();
  const View* v = client.view(sub_id);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->synced);
  const double sent_before = v->values.at("live.home.attack_sent");
  EXPECT_GT(sent_before, 0.0);
  for (int i = 0; i < 4; ++i) pump();
  EXPECT_GT(v->values.at("live.home.attack_sent"), sent_before)
      << "attack telemetry is not moving";
  EXPECT_EQ(v->values.at("live.home.block_drops"), 0.0);

  const std::string guest = fleet.device_mac(0, "guest");
  ASSERT_FALSE(guest.empty());
  bool ok = false;
  Timestamp applied_at = 0;
  client.mutate(quarantine(0, guest),
                [&](bool mutation_ok, Timestamp at, std::string) {
                  ok = mutation_ok;
                  applied_at = at;
                });
  op_loop.run_for(10 * kMillisecond);
  ASSERT_TRUE(ok);
  EXPECT_GT(applied_at, fleet.now());

  while (fleet.now() < applied_at + 2 * kSecond) pump();
  const LiveHomeStatus after = fleet.status(0);
  EXPECT_GE(after.block_flows, 1u);
  EXPECT_GT(after.block_drops, 0u) << "quarantine did not bite";
  // The stream saw the same outcome the fleet did.
  EXPECT_EQ(v->values.at("live.home.block_drops"),
            static_cast<double>(after.block_drops));
}

TEST_F(LiveLinkFixture, BackpressureDropsOldestThenResyncs) {
  LiveClient& client = make_client();
  const std::uint64_t sub_id = subscribe(client, "live.home.*", 0,
                                         /*max_queue=*/4);
  ASSERT_NE(sub_id, 0u);
  while (fleet.now() < 3500 * kMillisecond) pump();  // attack ticking

  // Stall the flush path: frames keep being generated each barrier (the
  // attack counters move every tick) and overflow the bounded queue.
  link.server().set_flush_budget(0);
  for (int i = 0; i < 8; ++i) pump();
  EXPECT_GT(link.server().stats().dropped.value(), 0u);

  link.server().set_flush_budget(static_cast<std::size_t>(-1));
  pump();
  const View* v = client.view(sub_id);
  ASSERT_NE(v, nullptr);
  EXPECT_GE(v->gaps, 1u);
  EXPECT_GT(v->dropped, 0u);
  EXPECT_TRUE(v->synced) << "snapshot resync frame never arrived";
  EXPECT_EQ(v->values, filtered(fleet.scalars(0), "live.home.*"));
}

// The retried-subscribe regression: every datagram is duplicated on the
// wire, so the server sees the subscribe twice (a retransmission) and every
// frame reaches the client twice. Dedup must keep it one subscription and
// seq gating must keep the view gap-free and exactly-once.
TEST_F(LiveLinkFixture, RetriedSubscribeKeepsDeltasExactlyOnce) {
  Rng fault_rng(3);
  sim::DatagramFault dup;
  dup.duplicate = 1.0;
  link.set_fault(dup, &fault_rng);

  LiveClient& client = make_client();
  const std::uint64_t sub_id = subscribe(client, "live.home.*", 0);
  ASSERT_NE(sub_id, 0u);
  EXPECT_EQ(link.server().subscriptions(), 1u);
  EXPECT_GE(link.server().stats().dup_suppressed.value(), 1u);

  while (fleet.now() < 4 * kSecond) pump();
  const View* v = client.view(sub_id);
  ASSERT_NE(v, nullptr);
  EXPECT_GT(v->frames, 0u);
  EXPECT_GT(v->dups, 0u);        // wire duplicates arrived...
  EXPECT_EQ(v->gaps, 0u);        // ...but the view never skipped a frame
  EXPECT_EQ(v->last_seq, v->frames);  // and applied each exactly once
  EXPECT_TRUE(v->synced);
  EXPECT_EQ(v->values, filtered(fleet.scalars(0), "live.home.*"));
}

TEST_F(LiveLinkFixture, PauseStepResumeGateTheClock) {
  LiveClient& client = make_client();
  pump();
  const Timestamp before = fleet.now();

  client.mutate(pause());
  op_loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(link.server().paused());
  pump();
  pump();
  EXPECT_EQ(fleet.now(), before) << "paused fleet advanced";

  client.mutate(step(2));
  op_loop.run_for(10 * kMillisecond);
  pump();
  pump();
  pump();  // budget exhausted: no-op
  EXPECT_EQ(fleet.now(), before + 2 * 250 * kMillisecond);

  client.mutate(resume_clock());
  op_loop.run_for(10 * kMillisecond);
  EXPECT_FALSE(link.server().paused());
  pump();
  EXPECT_EQ(fleet.now(), before + 3 * 250 * kMillisecond);
}

TEST_F(LiveLinkFixture, ReplayVerbVerifiesTheRunningFleet) {
  LiveClient& client = make_client();
  Mutation replay;
  replay.kind = MutateKind::Replay;
  replay.home = kAllHomes;

  // No checkpoint yet: the verb fails cleanly.
  bool ok = true;
  std::string error;
  client.mutate(replay, [&](bool mutation_ok, Timestamp, std::string err) {
    ok = mutation_ok;
    error = std::move(err);
  });
  op_loop.run_for(10 * kMillisecond);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("no checkpoint"), std::string::npos) << error;

  client.mutate(checkpoint());
  while (fleet.now() < 6 * kSecond) pump();
  ASSERT_EQ(fleet.checkpoints().size(), 1u);

  // With a checkpoint, Replay re-executes the tail synchronously and
  // confirms the fingerprint matches the live run.
  ok = false;
  client.mutate(replay, [&](bool mutation_ok, Timestamp, std::string err) {
    ok = mutation_ok;
    error = std::move(err);
  });
  op_loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(ok) << error;
}

TEST_F(LiveLinkFixture, HwdbVerbsRejected) {
  hwdb::rpc::RetryPolicy policy;
  policy.max_attempts = 2;
  auto& rpc = link.make_client(policy);
  std::string error;
  rpc.call(hwdb::rpc::QueryRequest{"SELECT * FROM Links"},
           [&](const hwdb::rpc::Response& resp) {
             EXPECT_FALSE(resp.ok);
             error = resp.error;
           });
  op_loop.run_for(10 * kMillisecond);
  EXPECT_EQ(error, "RPC: hwdb verb on a live endpoint");
}

}  // namespace
}  // namespace hw::live
