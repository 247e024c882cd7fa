// Deterministic chaos suite: the fig5 scenario (full router + devices +
// hwdb measurement plane) run under a scripted FaultPlan — lossy device
// links, an hwdb drop/duplicate burst, a controller-channel outage and a
// datapath cold restart — asserting the platform recovers:
//   * no device ever holds a duplicate DHCP lease,
//   * the flow table is re-synced (barrier-confirmed) after the outage and
//     the restart,
//   * every retried hwdb insert is applied exactly once,
//   * the telemetry counters tell a self-consistent recovery story,
// and that the whole run is deterministic: the same (seed, plan) yields an
// identical counter/gauge snapshot on a second run. Histogram series are
// excluded from the determinism diff — they time wall-clock nanoseconds
// (telemetry::ScopedTimer) and legitimately differ between runs.
//
// CHAOS_SEED overrides the default seed so CI can sweep a fixed seed list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "hwdb/udp_transport.hpp"
#include "sim/fault_injector.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("CHAOS_SEED")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v != 0) return v;
  }
  return 11;
}

/// Counter/gauge view of the process registry (histograms excluded: they
/// hold wall-clock latencies and are non-deterministic by construction).
std::map<std::string, double> scalar_snapshot() {
  return telemetry::MetricRegistry::instance().scalars();
}

struct ChaosResult {
  std::map<std::string, double> telemetry;  // live counters/gauges at t=30s
  std::vector<std::string> leases;          // "mac ip" per device, sorted
  std::set<std::int64_t> acked;             // insert seqs acked to the client
  std::multiset<std::int64_t> applied;      // insert seqs present in the db
  std::size_t flow_entries = 0;
  bool fail_safe_at_end = true;
  int resync_confirmations = 0;  // barrier-confirmed re-syncs observed
  /// Canonical "match|priority|actions|cookie" rows of the final table,
  /// sorted — the replay-vs-reconcile differential compares these.
  std::vector<std::string> flow_rows;

  /// One counter or gauge of `telemetry`; every series this scenario reads
  /// has exactly one instrument behind it.
  [[nodiscard]] double count(const std::string& series) const {
    return telemetry.at(series);
  }
};

/// One full scripted run. Everything (router, hosts, faults, rpc) is local,
/// so its instruments detach on return and back-to-back runs see clean
/// registry state for the series this scenario drives.
ChaosResult run_scenario(std::uint64_t seed,
                         HomeworkRouter::Config::Resync resync =
                             HomeworkRouter::Config::Resync::Reconcile) {
  sim::EventLoop loop;
  Rng rng(seed);

  HomeworkRouter::Config config;
  config.admission = DeviceRegistry::AdmissionDefault::PermitAll;
  config.liveness.probe_interval = kSecond;
  config.liveness.max_misses = 2;
  config.datapath.controller_dead_interval = 2 * kSecond;
  config.resync = resync;
  HomeworkRouter router(loop, rng, config);

  ChaosResult result;
  router.controller().on_resynced(
      [&](nox::DatapathId) { ++result.resync_confirmations; });
  router.start();

  // Three devices: d1 binds before any fault, d2 mid link-loss window, d3
  // during the controller outage (its packet-ins are denied until recovery).
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<HomeworkRouter::Attachment> attachments;
  for (int i = 0; i < 3; ++i) {
    sim::Host::Config hc;
    hc.name = "dev" + std::to_string(i + 1);
    hc.mac = MacAddress::from_index(static_cast<std::uint32_t>(i + 1));
    hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    attachments.push_back(router.attach_device(*hosts.back(), std::nullopt));
  }

  // The measurement plane under test: a reliable RPC client inserting a
  // monotone sequence while the link drops/duplicates datagrams.
  EXPECT_TRUE(router.db()
                  .create_table(hwdb::Schema("Chaos",
                                             {{"seq", hwdb::ColumnType::Int}}),
                                256)
                  .ok())
      << "Chaos table";
  hwdb::rpc::InProcRpcLink rpc_link(loop, router.db());
  hwdb::rpc::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.timeout = 100 * kMillisecond;
  policy.backoff_base = 50 * kMillisecond;
  policy.backoff_cap = 400 * kMillisecond;
  hwdb::rpc::RpcClient& rpc = rpc_link.make_client(policy);

  sim::FaultInjector faults(loop);
  router.attach_faults(faults);
  faults.set_hwdb_fault([&](const sim::DatagramFault& f, Rng* frng) {
    rpc_link.set_fault(f, frng);
  });
  for (std::size_t i = 0; i < attachments.size(); ++i) {
    faults.add_link("dev" + std::to_string(i + 1), *attachments[i].link);
  }

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.windows.push_back({sim::FaultKind::LinkLoss, 2 * kSecond, 6 * kSecond,
                          "*", 0.3, {}});
  plan.windows.push_back({sim::FaultKind::HwdbFault, 5 * kSecond, 7 * kSecond,
                          "*", 0.0,
                          {0.35, 0.25, 2 * kMillisecond}});
  plan.windows.push_back({sim::FaultKind::ControllerOutage, 10 * kSecond,
                          4 * kSecond, "*", 0.0, {}});
  plan.windows.push_back({sim::FaultKind::DatapathRestart, 20 * kSecond, 0,
                          "*", 0.0, {}});
  faults.arm(plan);

  // Workload schedule, all on the virtual clock.
  loop.schedule_at(500 * kMillisecond, [&] { hosts[0]->start_dhcp(); });
  loop.schedule_at(2500 * kMillisecond, [&] { hosts[1]->start_dhcp(); });
  loop.schedule_at(10500 * kMillisecond, [&] { hosts[2]->start_dhcp(); });
  // Lossy-window DHCP can exhaust the client's retry budget; re-kick any
  // unbound device after the outage clears and again after the restart has
  // been re-synced — exactly what a real client's INIT state does.
  for (const Timestamp at : {15 * kSecond, 24 * kSecond}) {
    loop.schedule_at(at, [&] {
      for (auto& host : hosts) {
        if (!host->ip()) host->start_dhcp();
      }
    });
  }

  std::int64_t next_seq = 0;
  sim::PeriodicTimer inserter(loop, 250 * kMillisecond, [&] {
    if (loop.now() > 25 * kSecond) return;
    const std::int64_t seq = next_seq++;
    rpc.insert("Chaos", {hwdb::Value{seq}}, [&result, seq](const auto& resp) {
      if (resp.ok) result.acked.insert(seq);
    });
  });
  loop.schedule_at(kSecond, [&] { inserter.start(); });

  loop.run_until(30 * kSecond);

  // Harvest while everything is alive.
  result.telemetry = scalar_snapshot();
  for (const auto& host : hosts) {
    result.leases.push_back(host->mac().to_string() + " " +
                            (host->ip() ? host->ip()->to_string() : "-"));
  }
  if (auto rs = router.db().query("SELECT seq FROM Chaos"); rs.ok()) {
    for (const auto& row : rs.value().rows) {
      result.applied.insert(row[0].as_int());
    }
  }
  result.flow_entries = router.datapath().table().size();
  result.fail_safe_at_end = router.datapath().fail_safe();
  router.datapath().table().for_each([&result](const ofp::FlowEntry& e) {
    char cookie[20];
    std::snprintf(cookie, sizeof cookie, "%016llx",
                  static_cast<unsigned long long>(e.cookie));
    result.flow_rows.push_back(e.match.to_string() + "|" +
                               std::to_string(e.priority) + "|" +
                               ofp::to_string(e.actions) + "|" + cookie);
  });
  std::sort(result.flow_rows.begin(), result.flow_rows.end());
  if (resync == HomeworkRouter::Config::Resync::Reconcile) {
    EXPECT_TRUE(router.reconciler()->verify_converged(
        router.datapath().id(), router.datapath().table()))
        << "final table diverged from desired state (seed " << seed << ")";
  }
  return result;
}

TEST(ChaosSoak, SurvivesLossyHomeNetworkAndRecovers) {
  const std::uint64_t seed = chaos_seed();
  const ChaosResult r = run_scenario(seed);

  // The plan ran to completion and closed every window.
  EXPECT_EQ(r.count("sim.fault.windows_started"), 4.0) << "seed " << seed;
  EXPECT_EQ(r.count("sim.fault.windows_ended"), 4.0);
  EXPECT_EQ(r.count("sim.fault.active"), 0.0);
  // Loss applied per direction.
  EXPECT_EQ(r.count("sim.fault.link_faults"), 2.0 * 3.0);
  EXPECT_EQ(r.count("sim.fault.controller_outages"), 1.0);
  EXPECT_EQ(r.count("sim.fault.hwdb_faults"), 1.0);
  EXPECT_EQ(r.count("sim.fault.datapath_restarts"), 1.0);

  // Every device ends bound, and no two devices share an address.
  std::set<std::string> ips;
  for (const auto& lease : r.leases) {
    const std::string ip = lease.substr(lease.find(' ') + 1);
    EXPECT_NE(ip, "-") << "unbound device: " << lease << " (seed " << seed
                       << ")";
    EXPECT_TRUE(ips.insert(ip).second)
        << "duplicate DHCP lease " << ip << " (seed " << seed << ")";
  }
  // Retransmissions happened (lossy window) yet never double-allocated.
  EXPECT_GT(r.count("homework.dhcp.retransmits") +
                r.count("hwdb.rpc.dup_suppressed"),
            0.0);

  // Exactly-once hwdb writes: no sequence number landed twice, and every
  // insert the client saw acked is present.
  std::set<std::int64_t> distinct(r.applied.begin(), r.applied.end());
  EXPECT_EQ(distinct.size(), r.applied.size())
      << "a retried insert was applied twice (seed " << seed << ")";
  for (const std::int64_t seq : r.acked) {
    EXPECT_TRUE(distinct.count(seq)) << "acked seq " << seq << " missing";
  }
  EXPECT_FALSE(r.acked.empty());

  // The drop burst forced retries; suppression only ever happens when a
  // datagram was re-sent (client retry) or duplicated by the link.
  EXPECT_GT(r.count("hwdb.rpc.retries"), 0.0);
  EXPECT_LE(r.count("hwdb.rpc.dup_suppressed"),
            r.count("hwdb.rpc.retries") +
                r.count("hwdb.rpc_link.fault_duplicated"));

  // Controller-channel recovery: the outage tripped the watchdog and the
  // restart re-sent HELLO; both ended in a barrier-confirmed re-sync that
  // re-installed the modules' flows.
  EXPECT_GE(r.count("nox.channel.reconnects"), 2.0) << "seed " << seed;
  EXPECT_GE(r.count("nox.channel.resynced_flows"), 3.0);
  EXPECT_GE(r.resync_confirmations, 2);
  EXPECT_GE(r.flow_entries, 3u) << "flow table not re-populated after restart";

  // The datapath spent the outage in fail-safe and left it on recovery.
  EXPECT_GE(r.count("openflow.datapath.failsafe_entries"), 1.0);
  EXPECT_EQ(r.count("openflow.datapath.restarts"), 1.0);
  EXPECT_FALSE(r.fail_safe_at_end);
}

TEST(ChaosSoak, IdenticalSeedReplaysIdentically) {
  const std::uint64_t seed = chaos_seed();
  const ChaosResult a = run_scenario(seed);
  const ChaosResult b = run_scenario(seed);

  // Same seed + same plan → the exact same failure history: every counter
  // and gauge lands on the same value, down to the last retry.
  EXPECT_EQ(a.telemetry, b.telemetry) << "seed " << seed;
  EXPECT_EQ(a.leases, b.leases);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.count("hwdb.rpc.retries"), b.count("hwdb.rpc.retries"));
  EXPECT_EQ(a.count("hwdb.rpc.dup_suppressed"),
            b.count("hwdb.rpc.dup_suppressed"));
  EXPECT_EQ(a.resync_confirmations, b.resync_confirmations);
}

TEST(ChaosDifferential, ReplayAndReconcileConvergeToIdenticalState) {
  // Same seed, same fault plan, two recovery strategies: the legacy blind
  // replay and the goal-state reconciler must land every device on the same
  // lease, apply the same hwdb rows, and leave bit-identical flow tables
  // (rows, priorities, actions AND cookies — replay stamps the same
  // deterministic desired-state cookies a reconcile Add would).
  const std::uint64_t seed = chaos_seed();
  const ChaosResult replay =
      run_scenario(seed, HomeworkRouter::Config::Resync::Replay);
  const ChaosResult reconcile =
      run_scenario(seed, HomeworkRouter::Config::Resync::Reconcile);

  EXPECT_EQ(replay.flow_rows, reconcile.flow_rows) << "seed " << seed;
  EXPECT_EQ(replay.leases, reconcile.leases);
  EXPECT_EQ(replay.applied, reconcile.applied);
  EXPECT_EQ(replay.acked, reconcile.acked);
  EXPECT_FALSE(replay.fail_safe_at_end);
  EXPECT_FALSE(reconcile.fail_safe_at_end);

  // Both strategies recovered through barrier-confirmed re-syncs, but the
  // reconciler did it with delta rounds: the divergence (outage heal with a
  // surviving table + one cold restart) costs it strictly fewer re-sent
  // flows than replaying every module's setup on each reconnect.
  EXPECT_GE(replay.resync_confirmations, 2);
  EXPECT_GE(reconcile.resync_confirmations, 2);
  EXPECT_LT(reconcile.count("nox.channel.resynced_flows"),
            replay.count("nox.channel.resynced_flows"))
      << "delta resync must beat blind replay (seed " << seed << ")";
}

}  // namespace
}  // namespace hw::homework
