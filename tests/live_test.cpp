// The live operations plane: barrier-stepped fleet determinism (including
// run-to-completion fleets with apps on and under seeded per-home fault
// schedules), fleet-wide consistent checkpoints with time-travel replay,
// control mutations landing on deterministic barriers, and the operator
// streaming path (subscribe / delta frames / backpressure / retried-request
// idempotency) end to end against a running fleet.
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <set>

#include "live/client.hpp"
#include "live/fleet.hpp"
#include "live/mutation.hpp"
#include "live/server.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/codec.hpp"
#include "util/rand.hpp"

// Calls to operator new while counting is on: the stream's allocation test
// bounds what one pump may allocate. The nothrow form (std::stable_sort's
// scratch buffer) is replaced too, so every block comes from malloc and
// goes back to free.
static bool g_count_allocs = false;
static std::size_t g_alloc_calls = 0;

// The free() calls pair with the malloc() in the replacement operator new;
// GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_count_allocs) ++g_alloc_calls;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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

// ---------------------------------------------------------------------------
// Telemetry view: one id-indexed view per barrier, checked against the
// string-keyed merge it replaced

/// A fleet under residency with its app mixes on and hibernate/wake verbs
/// on a fixed schedule, so homes page out and back in while the view is
/// read.
LiveConfig paging_config(std::size_t homes, std::size_t threads) {
  LiveConfig cfg = attack_config(homes, threads);
  cfg.run_apps = true;
  cfg.dhcp_offer_hold = 2 * kSecond;
  cfg.residency.wake_on_due = false;
  return cfg;
}

/// The mutations the view and stream tests submit before barrier `b`
/// (counted from start): faults and a quarantine early on, so many series
/// move; home 1 hibernates at the first aligned barrier and wakes a second
/// later; everything hibernates at the second aligned barrier and home 2
/// wakes two seconds after.
void submit_paging_verbs(LiveFleet& fleet, std::uint64_t b) {
  if (b == 2) fleet.submit(hibernate_home(1));
  if (b == 3) fleet.submit(inject_fault(0, "datapath-restart", 0.5, 0, 0));
  if (b == 4) {
    fleet.submit(inject_fault(0, "controller-outage", 0.5, 0, kSecond));
  }
  if (b == 5) fleet.submit(inject_fault(2, "crash-restart-restore", 0.5, 0, 0));
  if (b == 6) fleet.submit(inject_fault(2, "hwdb-fault", 0.5, 0, kSecond));
  if (b == 7) fleet.submit(quarantine(0, fleet.device_mac(0, "guest")));
  if (b == 24) fleet.submit(wake_home(1));
  if (b == 30) fleet.submit(hibernate_home(kAllHomes));
  if (b == 48) fleet.submit(wake_home(2));
}

/// Every home builds the same instruments, so this stands in for a module
/// that builds one mid-run in one home only: "test.home0_only" lives in
/// home 0 from barrier 8 to 16, counting up, and again from 20 to 24 at 0.
/// The series is present in some homes only, the registry's membership
/// changes under the view four times, and the series vanishes and comes
/// back at the value an absent slot reads. Home 0 stays resident meanwhile
/// (submit_paging_verbs hibernates it at barrier 40).
class Home0OnlySeries {
 public:
  void after_step(const LiveFleet& fleet, std::uint64_t b) {
    if (b == 8 || b == 20) {
      ASSERT_NE(fleet.registry(0), nullptr);
      counter_.emplace(
          const_cast<telemetry::MetricRegistry&>(*fleet.registry(0)),
          "test.home0_only");
    }
    if (counter_ && b < 16) counter_->inc(b);
    if (b == 16 || b == 24) counter_.reset();
  }

 private:
  std::optional<telemetry::Counter> counter_;
};

/// The registry of a hibernated home as its frozen view stands in for it:
/// the image's TELE chunk (registry scalars at capture time), with
/// snapshot.bytes as the capture set it after encoding the image.
std::map<std::string, double> frozen_oracle(
    const snapshot::SnapshotImage& image) {
  std::map<std::string, double> out;
  const auto reader = snapshot::Reader::parse(image.bytes);
  EXPECT_TRUE(reader.ok());
  if (!reader.ok()) return out;
  const Bytes* tele = reader.value().find(snapshot::tag("TELE"));
  EXPECT_NE(tele, nullptr);
  if (tele == nullptr) return out;
  ByteReader br(*tele);
  const std::uint32_t count = br.u32().value();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = snapshot::get_string(br).value();
    out[name] = std::bit_cast<double>(br.u64().value());
  }
  out["snapshot.bytes"] = static_cast<double>(image.bytes.size());
  return out;
}

std::uint64_t gauge_of(const std::map<std::string, double>& m,
                       const char* name) {
  const auto it = m.find(name);
  return it != m.end() && it->second > 0
             ? static_cast<std::uint64_t>(it->second)
             : 0;
}

// scalars(), scalars(h), fingerprint() and status(h) all read the one
// per-barrier view; at every barrier each must equal the string-keyed merge
// the view replaced: MetricRegistry::add_scalars over the resident homes'
// registries, plus a hibernated home's registry as its image froze it,
// summed in home-id order.
TEST(TelemetryView, EqualsTheStringMergeAtEveryBarrier) {
  constexpr std::size_t kHomes = 3;
  LiveFleet fleet(paging_config(kHomes, 2));
  fleet.start();
  std::map<std::string, bool> exact_names;  // series -> declared Exact
  bool saw_hibernated = false;
  bool saw_woken = false;
  bool saw_partial_series = false;
  Home0OnlySeries home0_only;
  for (std::uint64_t b = 0; b < 64; ++b) {
    submit_paging_verbs(fleet, b);
    fleet.step();
    home0_only.after_step(fleet, b);

    std::map<std::string, double> merged;
    std::map<std::string, double> merged_exact;
    std::vector<std::map<std::string, double>> per_home(kHomes);
    for (std::uint32_t h = 0; h < kHomes; ++h) {
      if (const telemetry::MetricRegistry* reg = fleet.registry(h)) {
        reg->add_scalars(merged);
        reg->add_scalars(merged_exact, /*exact_only=*/true);
        per_home[h] = reg->scalars();
        reg->visit([&](const telemetry::Instrument& i) {
          exact_names[i.name()] =
              i.determinism() == telemetry::Determinism::Exact;
        });
        saw_woken |= saw_hibernated;
      } else {
        saw_hibernated = true;
        const auto image = fleet.image_store().get(h);
        ASSERT_TRUE(image.ok()) << image.error().message;
        per_home[h] = frozen_oracle(image.value());
        for (const auto& [name, value] : per_home[h]) {
          merged[name] += value;
          const auto it = exact_names.find(name);
          ASSERT_NE(it, exact_names.end()) << name << " never seen resident";
          if (it->second) merged_exact[name] += value;
        }
      }
    }
    for (std::uint32_t h = 0; h < kHomes; ++h) {
      const auto got = fleet.scalars(h);
      ASSERT_TRUE(got == per_home[h])
          << "barrier " << b << " home " << h << ":\n"
          << diff_maps(got, per_home[h]);
      saw_partial_series |= got.size() < merged.size();
      const LiveHomeStatus st = fleet.status(h);
      EXPECT_EQ(st.hibernated, fleet.registry(h) == nullptr);
      EXPECT_EQ(st.devices_bound,
                gauge_of(per_home[h], "live.home.devices_bound"));
      EXPECT_EQ(st.flow_entries,
                gauge_of(per_home[h], "live.home.flow_entries"));
      EXPECT_EQ(st.block_flows, gauge_of(per_home[h], "live.home.block_flows"));
      EXPECT_EQ(st.block_drops, gauge_of(per_home[h], "live.home.block_drops"));
      EXPECT_EQ(st.attack_sent, gauge_of(per_home[h], "live.home.attack_sent"));
    }
    const auto all = fleet.scalars();
    ASSERT_TRUE(all == merged) << "barrier " << b << ":\n"
                               << diff_maps(all, merged);
    const auto fp = fleet.fingerprint();
    ASSERT_TRUE(fp == merged_exact) << "barrier " << b << ":\n"
                                    << diff_maps(fp, merged_exact);
  }
  EXPECT_TRUE(saw_hibernated);
  EXPECT_TRUE(saw_woken);
  EXPECT_TRUE(saw_partial_series)
      << "every home carried every series: the merge of a series some homes "
         "lack went untested";
}

/// LiveServer's stream as the string path computed it, kept as the oracle:
/// each subscription samples scalars(home) filtered by its pattern, deltas
/// against its previous sample with telemetry::scalar_delta, queues with
/// drop-oldest and flushes under the shared frame budget in id order.
class OracleStream {
 public:
  void subscribe(std::uint64_t id, ClientAddress client, std::string pattern,
                 std::uint32_t home, std::uint32_t every,
                 std::size_t max_queue) {
    Sub sub;
    sub.id = id;
    sub.client = client;
    sub.pattern = std::move(pattern);
    sub.home = home;
    sub.every = every;
    sub.max_queue = max_queue;
    subs_.push_back(std::move(sub));
  }

  void sample(const LiveFleet& fleet) {
    for (Sub& sub : subs_) {
      if (++sub.barriers % sub.every != 0) continue;
      telemetry::ScalarMap cur = filtered(fleet.scalars(sub.home), sub.pattern);
      hwdb::rpc::DeltaPush frame;
      frame.sub_id = sub.id;
      frame.vtime = fleet.now();
      frame.home = sub.home;
      if (!sub.synced) {
        frame.snapshot = true;
        frame.dropped = sub.dropped_pending;
        sub.dropped_pending = 0;
        frame.values.assign(cur.begin(), cur.end());
        sub.synced = true;
      } else {
        const telemetry::ScalarMap delta =
            telemetry::scalar_delta(sub.prev, cur);
        if (delta.empty()) {
          sub.prev = std::move(cur);
          continue;
        }
        frame.values.assign(delta.begin(), delta.end());
      }
      sub.prev = std::move(cur);
      frame.seq = sub.next_seq++;
      sub.queue.push_back(std::move(frame));
      while (sub.queue.size() > sub.max_queue) {
        sub.queue.pop_front();
        ++sub.dropped_pending;
        sub.synced = false;
      }
    }
  }

  std::vector<std::pair<ClientAddress, Bytes>> flush(std::size_t budget) {
    std::vector<std::pair<ClientAddress, Bytes>> out;
    for (Sub& sub : subs_) {
      while (!sub.queue.empty() && budget > 0) {
        out.emplace_back(sub.client, hwdb::rpc::encode(sub.queue.front()));
        sub.queue.pop_front();
        --budget;
      }
    }
    return out;
  }

 private:
  struct Sub {
    std::uint64_t id = 0;
    ClientAddress client = 0;
    std::string pattern;
    std::uint32_t home = kAllHomes;
    std::uint32_t every = 1;
    std::size_t max_queue = 64;
    std::uint64_t barriers = 0;
    std::uint64_t next_seq = 1;
    bool synced = false;
    std::uint64_t dropped_pending = 0;
    telemetry::ScalarMap prev;
    std::deque<hwdb::rpc::DeltaPush> queue;
  };
  std::vector<Sub> subs_;
};

/// Subscribes through the wire and returns the server's sub id.
std::uint64_t wire_subscribe(LiveServer& server,
                             std::vector<std::pair<ClientAddress, Bytes>>& sent,
                             ClientAddress client, const std::string& pattern,
                             std::uint32_t home, std::uint32_t every,
                             std::uint32_t max_queue) {
  hwdb::rpc::SubscribeSeriesRequest req;
  req.pattern = pattern;
  req.home = home;
  req.every = every;
  req.max_queue = max_queue;
  server.handle_datagram(
      client, hwdb::rpc::encode(hwdb::rpc::Request{
                  static_cast<std::uint32_t>(client + 1), req}));
  EXPECT_FALSE(sent.empty());
  if (sent.empty()) return 0;
  auto decoded = hwdb::rpc::decode(sent.back().second, /*from_server=*/true);
  sent.clear();
  EXPECT_TRUE(decoded.ok());
  if (!decoded.ok()) return 0;
  const auto* resp = std::get_if<hwdb::rpc::Response>(&decoded.value());
  EXPECT_NE(resp, nullptr);
  return resp != nullptr ? resp->sub_id.value_or(0) : 0;
}

// Differential stream: every frame the id-indexed server sends equals,
// byte for byte, the frame the string path computes from the same fleet —
// across fleet-wide and single-home subscriptions, prefix, exact and
// never-matching patterns, every = 1 and 3, hibernate/wake verbs, and
// queue overflow with resync.
TEST(LiveStream, FramesMatchTheStringPathByteForByte) {
  struct Spec {
    std::string pattern;
    std::uint32_t home;
    std::uint32_t every;
    std::uint32_t max_queue;
  };
  const std::vector<Spec> specs = {
      {"*", kAllHomes, 1, 64},
      {"openflow.*", kAllHomes, 3, 64},
      {"live.home.attack_sent", 0, 1, 64},
      {"no.such.series", kAllHomes, 1, 64},
      {"*", 1, 1, 1},
      {"homework.*", 2, 3, 1},
      {"live.home.*", kAllHomes, 1, 1},
      {"snapshot.bytes", 2, 1, 64},
  };
  constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);
  for (const std::size_t threads : {1u, 2u}) {
    LiveFleet fleet(paging_config(3, threads));
    fleet.start();
    std::vector<std::pair<ClientAddress, Bytes>> sent;
    LiveServer server(fleet, [&](ClientAddress to, const Bytes& datagram) {
      sent.emplace_back(to, datagram);
    });
    OracleStream oracle;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const Spec& spec = specs[i];
      const std::uint64_t id =
          wire_subscribe(server, sent, i, spec.pattern, spec.home, spec.every,
                         spec.max_queue);
      ASSERT_NE(id, 0u);
      oracle.subscribe(id, i, spec.pattern, spec.home, spec.every,
                       spec.max_queue);
    }

    std::size_t frames = 0;
    std::size_t snapshots = 0;
    Home0OnlySeries home0_only;
    for (std::uint64_t b = 0; b < 64; ++b) {
      submit_paging_verbs(fleet, b);
      // Stall the flush for a stretch: the max_queue = 1 subscriptions
      // overflow and must resync with a snapshot carrying the drop count.
      const std::size_t budget = b >= 12 && b < 16 ? 0 : kUnlimited;
      server.set_flush_budget(budget);
      server.pump();
      oracle.sample(fleet);
      const auto want = oracle.flush(budget);
      ASSERT_EQ(sent.size(), want.size()) << "barrier " << b;
      for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(sent[k].first, want[k].first) << "barrier " << b;
        ASSERT_TRUE(sent[k].second == want[k].second)
            << "barrier " << b << " frame " << k << " differs";
        auto decoded = hwdb::rpc::decode(sent[k].second, /*from_server=*/true);
        ASSERT_TRUE(decoded.ok());
        const auto* push = std::get_if<hwdb::rpc::DeltaPush>(&decoded.value());
        ASSERT_NE(push, nullptr);
        snapshots += push->snapshot ? 1 : 0;
      }
      frames += sent.size();
      sent.clear();
      home0_only.after_step(fleet, b);  // between pumps: the next view shows it
    }
    EXPECT_GT(server.stats().dropped.value(), 0u) << threads << " threads";
    EXPECT_GT(snapshots, specs.size()) << "no resync snapshot was sent";
    EXPECT_GT(frames, 64u);
  }
}

// A pump in which no series moved allocates a constant number of times, not
// once per series: the view reuses its vectors, each subscription compares
// by id, and names are only copied into frames that are sent.
TEST(LiveStream, UnchangedPumpAllocatesConstant) {
  LiveConfig cfg = attack_config(4, 1);
  // Every home frozen, so no series moves.
  cfg.residency.hibernate_on_start = true;
  cfg.residency.wake_on_due = false;
  LiveFleet fleet(cfg);
  fleet.start();
  std::size_t frames = 0;
  LiveServer server(fleet, [&](ClientAddress, const Bytes&) { ++frames; });
  const std::vector<std::string> patterns = {"*", "*", "openflow.*",
                                             "live.home.*"};
  for (std::uint32_t i = 0; i < patterns.size(); ++i) {
    hwdb::rpc::SubscribeSeriesRequest req;
    req.pattern = patterns[i];
    server.handle_datagram(0, hwdb::rpc::encode(hwdb::rpc::Request{i + 1, req}));
  }
  server.pump();  // snapshot frames
  server.pump();
  ASSERT_EQ(fleet.residency().resident_count(), 0u);
  ASSERT_GT(fleet.scalars().size(), 100u);

  frames = 0;
  g_alloc_calls = 0;
  g_count_allocs = true;
  server.pump();
  g_count_allocs = false;
  EXPECT_EQ(frames, 0u) << "a series moved in a fully hibernated fleet";
  EXPECT_LE(g_alloc_calls, 16u)
      << "one pump over " << fleet.series_names().size() << " series";
}

}  // namespace
}  // namespace hw::live
