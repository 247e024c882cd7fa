#include "fleet/fleet.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>

#include "homework/router.hpp"
#include "hwdb/udp_transport.hpp"
#include "snapshot/codec.hpp"
#include "util/rand.hpp"
#include "workload/scenario.hpp"

namespace hw::fleet {
namespace {

constexpr std::uint32_t kRngTag = snapshot::tag("RNGS");
constexpr std::uint32_t kDriverTag = snapshot::tag("FDRV");

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Smallest phase + k * period strictly after `now` — re-arms a restored
/// home's periodic drivers on the same absolute tick grid the uninterrupted
/// run uses.
Timestamp next_phase_tick(Timestamp now, Duration period, Duration phase) {
  if (now < phase) return phase;
  return phase + ((now - phase) / period + 1) * period;
}

}  // namespace

FleetRunner::FleetRunner(FleetConfig config)
    : config_(std::move(config)),
      profile_(residency::FleetProfile::build(config_.seed, config_.homes,
                                              config_.devices_per_home)) {}

std::uint64_t FleetRunner::home_seed(std::uint64_t fleet_seed,
                                     std::size_t home_id) {
  return residency::FleetProfile::home_seed(fleet_seed, home_id);
}

sim::FaultPlan FleetRunner::chaos_plan(std::uint64_t seed, Duration duration) {
  sim::FaultPlan plan;
  plan.seed = seed;
  // Draws come from a dedicated stream so the plan shape never perturbs the
  // scenario's own randomness.
  std::uint64_t s = seed ^ 0xda3e39cb94b95bdbULL;

  const auto push_if_fits = [&](sim::FaultWindow w) {
    if (w.start + w.duration + kSecond < duration) plan.windows.push_back(w);
  };

  // Every home weathers a lossy-links window; placement and intensity vary.
  const Timestamp loss_at = 2 * kSecond + splitmix64(s) % (3 * kSecond);
  const Duration loss_len = 2 * kSecond + splitmix64(s) % (3 * kSecond);
  const double loss = 0.15 + static_cast<double>(splitmix64(s) % 20) / 100.0;
  push_if_fits({sim::FaultKind::LinkLoss, loss_at, loss_len, "*", loss, {}});

  // Roughly half the homes also see an hwdb drop/duplicate burst...
  if (splitmix64(s) % 2 == 0) {
    const Timestamp at = 5 * kSecond + splitmix64(s) % (2 * kSecond);
    push_if_fits({sim::FaultKind::HwdbFault, at, 2 * kSecond, "*", 0.0,
                  {0.3, 0.2, 2 * kMillisecond}});
  }
  // ...half a controller-channel outage...
  if (splitmix64(s) % 2 == 0) {
    const Timestamp at = 10 * kSecond + splitmix64(s) % (2 * kSecond);
    push_if_fits({sim::FaultKind::ControllerOutage, at, 3 * kSecond, "*", 0.0,
                  {}});
  }
  // ...and a quarter a datapath cold restart late in the run.
  if (splitmix64(s) % 4 == 0) {
    push_if_fits({sim::FaultKind::DatapathRestart, 20 * kSecond, 0, "*", 0.0,
                  {}});
  }
  // Another quarter crashes and comes back restoring the flow table from the
  // last snapshot (a cold restart when no checkpoint has been captured).
  if (splitmix64(s) % 4 == 1) {
    push_if_fits({sim::FaultKind::CrashRestartRestore, 22 * kSecond, 0, "*",
                  0.0, {}});
  }
  return plan;
}

HomeResult FleetRunner::run_home(std::size_t home_id) const {
  const std::uint64_t seed = home_seed(config_.seed, home_id);
  const bool kill = config_.kill_home && *config_.kill_home == home_id &&
                    config_.checkpoints && config_.kill_at > 0 &&
                    config_.kill_at < config_.duration;
  if (!kill) {
    return run_life(home_id, seed, nullptr, config_.duration, nullptr);
  }

  // First life runs to the kill point, checkpointing periodically; the home
  // is then torn down completely (worker "crash") and a second life resumes
  // from the last captured image. A kill before the first checkpoint simply
  // reruns the home from scratch.
  std::optional<snapshot::SnapshotImage> checkpoint;
  (void)run_life(home_id, seed, nullptr, config_.kill_at, &checkpoint);
  if (!checkpoint) {
    return run_life(home_id, seed, nullptr, config_.duration, nullptr);
  }
  return run_life(home_id, seed, &*checkpoint, config_.duration, nullptr);
}

HomeResult FleetRunner::run_life(
    std::size_t home_id, std::uint64_t seed,
    const snapshot::SnapshotImage* resume, Timestamp end_at,
    std::optional<snapshot::SnapshotImage>* checkpoint_out) const {
  const auto wall_start = std::chrono::steady_clock::now();

  // The home's own registry, installed for the home's entire lifetime so
  // every instrument — router subsystems, hosts, links, apps — lands in it.
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scope(registry);

  workload::HomeScenario::Config sc;
  sc.seed = seed;
  sc.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  sc.router.liveness.probe_interval = kSecond;
  sc.router.liveness.max_misses = 2;
  sc.router.datapath.controller_dead_interval = 2 * kSecond;
  if (resume != nullptr) {
    // Start the loop one boot-settle before the capture instant: boot runs
    // the clock to exactly captured_at, module timers arm on the same
    // integer-second grid as the first life, and the restore below rewinds
    // the state they produced while settling.
    const Duration settle = homework::HomeworkRouter::kBootSettle;
    sc.clock_origin =
        resume->captured_at > settle ? resume->captured_at - settle : 0;
  }
  workload::HomeScenario home(sc, registry);
  home.start();

  // Device population from the shared per-fleet profile (the seed-derived
  // tables every plane reads; re-derived only for out-of-range ids a test
  // runs ad hoc).
  if (home_id < profile_->device_specs.size()) {
    for (const workload::DeviceSpec& spec : profile_->device_specs[home_id]) {
      home.add_device(spec);
    }
  } else {
    for (const workload::DeviceSpec& spec : residency::FleetProfile::
             derive_devices(seed, config_.devices_per_home)) {
      home.add_device(spec);
    }
  }

  HomeResult result;
  result.home_id = home_id;
  result.seed = seed;
  result.devices = home.devices().size();

  // The measurement plane under load: a reliable RPC client inserting a
  // monotone sequence into this home's hwdb (mangled by chaos when armed).
  const bool have_table =
      home.router()
          .db()
          .create_table(
              hwdb::Schema("FleetSamples", {{"seq", hwdb::ColumnType::Int}}),
              1024)
          .ok();
  hwdb::rpc::InProcRpcLink rpc_link(home.loop(), home.router().db());
  hwdb::rpc::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.timeout = 100 * kMillisecond;
  policy.backoff_base = 50 * kMillisecond;
  policy.backoff_cap = 400 * kMillisecond;
  hwdb::rpc::RpcClient& rpc = rpc_link.make_client(policy);

  std::set<std::int64_t> acked;
  std::int64_t next_seq = 0;
  // Stop inserting before the end so in-flight retries settle by harvest.
  const Timestamp insert_until =
      config_.duration - std::min<Duration>(config_.duration / 6, 5 * kSecond);
  sim::PeriodicTimer inserter(home.loop(), 500 * kMillisecond, [&] {
    if (!have_table || home.loop().now() >= insert_until) return;
    const std::int64_t seq = next_seq++;
    rpc.insert("FleetSamples", {hwdb::Value{seq}},
               [&acked, seq](const auto& resp) {
                 if (resp.ok) acked.insert(seq);
               });
  });
  sim::FaultInjector faults(home.loop());
  if (config_.chaos) {
    home.router().attach_faults(faults);
    faults.set_hwdb_fault([&](const sim::DatagramFault& f, Rng* frng) {
      rpc_link.set_fault(f, frng);
    });
    for (auto& d : home.devices()) {
      faults.add_link(d.name, *d.attachment.link);
    }
    sim::FaultPlan plan = chaos_plan(seed, config_.duration);
    if (resume != nullptr) {
      // Windows that fully closed before the capture live on only through
      // the restored state; windows still open (or future) re-begin at
      // resume. Fault counters therefore drift from an uninterrupted run —
      // chaos resume is behavioural, not bit-exact.
      const Timestamp at = resume->captured_at;
      std::erase_if(plan.windows, [at](const sim::FaultWindow& w) {
        return w.start + w.duration <= at;
      });
    }
    faults.arm(plan);
  }

  // Checkpoint plumbing: the driver-side layers (scenario RNG stream, insert
  // sequence counter) and the telemetry layer join the router's five state
  // layers so an image carries everything a resumed life needs.
  auto& snaps = home.router().snapshots();
  snapshot::LambdaLayer rng_layer(
      [&home](snapshot::Writer& w) {
        ByteWriter& c = w.begin_chunk(kRngTag);
        for (const std::uint64_t word : home.rng().state()) c.u64(word);
        w.end_chunk();
      },
      [&home](const snapshot::Reader& r) -> Status {
        const Bytes* chunk = r.find(kRngTag);
        if (chunk == nullptr) return Status::success();
        ByteReader br(*chunk);
        std::array<std::uint64_t, 4> state{};
        for (auto& word : state) {
          auto v = br.u64();
          if (!v) return v.error();
          word = v.value();
        }
        home.rng().set_state(state);
        return Status::success();
      });
  snapshot::LambdaLayer driver_layer(
      [&next_seq](snapshot::Writer& w) {
        w.begin_chunk(kDriverTag).u64(static_cast<std::uint64_t>(next_seq));
        w.end_chunk();
      },
      [&next_seq](const snapshot::Reader& r) -> Status {
        const Bytes* chunk = r.find(kDriverTag);
        if (chunk == nullptr) return Status::success();
        ByteReader br(*chunk);
        auto v = br.u64();
        if (!v) return v.error();
        next_seq = static_cast<std::int64_t>(v.value());
        return Status::success();
      });
  snapshot::TelemetryLayer tele_layer(registry);
  const bool snapshotting = config_.checkpoints || resume != nullptr;
  if (snapshotting) {
    snaps.add_layer("rng", &rng_layer);
    snaps.add_layer("fleet-driver", &driver_layer);
  }

  // Chaos windows can exhaust a client's retry budget; periodically re-kick
  // any unbound device, exactly what a real DHCP client's INIT state does.
  // Armed on the absolute x.5s grid so a resumed life's kicks line up with
  // the uninterrupted run's.
  sim::PeriodicTimer rekick(home.loop(), 5 * kSecond, [&] {
    for (auto& d : home.devices()) {
      if (!d.host->ip()) d.host->start_dhcp();
    }
  });

  if (resume == nullptr) {
    if (snapshotting) snaps.add_layer("telemetry", &tele_layer);
    home.loop().schedule_at(kSecond, [&] { inserter.start(); });
    home.start_dhcp_all();
    rekick.start_at(5 * kSecond + 500 * kMillisecond);
    if (config_.run_apps) {
      // Let leases bind first so the app mixes resolve and flow immediately.
      (void)home.wait_all_bound(
          std::min<Duration>(10 * kSecond, config_.duration));
      home.start_apps_all();
    }
  } else {
    // Two-phase restore: state layers first, then — once apps and their
    // instruments exist — the telemetry layer, so restored counters land on
    // live series and erase the boot's own side effects.
    const bool restored = snaps.restore(*resume).ok();
    if (restored) {
      home.adopt_restored_leases();
      if (config_.run_apps) home.start_apps_all();
      // Boot-era channel messages (the devices' PORT_STATUS announcements)
      // are still in flight at the capture instant; drain them before the
      // telemetry restore so their rx counts are erased along with the rest
      // of the boot's side effects — the uninterrupted run counted them
      // before the capture, so the restored TELE chunk already has them.
      home.loop().run_for(kMillisecond);
      snaps.add_layer("telemetry", &tele_layer);
      (void)snaps.restore_layers(resume->bytes, {"telemetry"});
    } else {
      // Unrestorable image: behave like a fresh boot mid-timeline.
      snaps.add_layer("telemetry", &tele_layer);
      home.start_dhcp_all();
      if (config_.run_apps) home.start_apps_all();
    }
    const Timestamp now = home.loop().now();
    inserter.start_at(next_phase_tick(now, 500 * kMillisecond, 0));
    rekick.start_at(next_phase_tick(now, 5 * kSecond, 500 * kMillisecond));
  }

  if (config_.checkpoints) {
    snaps.start_periodic_captures(config_.checkpoint_interval, {},
                                  homework::HomeworkRouter::kBootSettle);
  }

  home.loop().run_until(end_at);

  // Harvest while everything is alive, still on this worker thread.
  result.scalars = registry.scalars();
  result.histograms = registry.histogram_states();
  for (auto& d : home.devices()) {
    if (d.host->ip()) ++result.devices_bound;
  }
  result.all_bound = result.devices_bound == result.devices;
  result.fail_safe_at_end = home.router().datapath().fail_safe();
  result.flow_entries = home.router().datapath().table().size();
  result.faults = faults.stats();
  result.inserts_acked = acked.size();
  std::multiset<std::int64_t> applied;
  if (auto rs = home.router().db().query("SELECT seq FROM FleetSamples");
      rs.ok()) {
    for (const auto& row : rs.value().rows) applied.insert(row[0].as_int());
  }
  result.inserts_applied = applied.size();
  const std::set<std::int64_t> distinct(applied.begin(), applied.end());
  result.inserts_exactly_once =
      distinct.size() == applied.size() &&
      std::all_of(acked.begin(), acked.end(),
                  [&](std::int64_t seq) { return distinct.count(seq) > 0; });
  if (const auto frames = registry.total("sim.link.tx_frames")) {
    result.frames = static_cast<std::uint64_t>(*frames);
  }
  if (checkpoint_out != nullptr) *checkpoint_out = snaps.last_image();
  result.wall_ms = wall_ms_since(wall_start);
  return result;
}

FleetResult FleetRunner::run() const {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t n = config_.homes;
  std::size_t threads = config_.threads != 0
                            ? config_.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  threads = std::max<std::size_t>(1, std::min(threads, std::max<std::size_t>(n, 1)));

  // Each slot is written by exactly one worker; the joins below are the
  // happens-before edge for the aggregation pass.
  std::vector<HomeResult> results(n);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    while (true) {
      const std::size_t id = next.fetch_add(1, std::memory_order_relaxed);
      if (id >= n) return;
      results[id] = run_home(id);
    }
  };
  if (threads == 1) {
    worker();  // inline: keeps single-threaded runs debuggable
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  FleetResult fleet;
  fleet.homes = std::move(results);
  fleet.threads_used = threads;

  // Merge strictly in home-id order: double accumulation order is fixed, so
  // the totals are bit-identical regardless of worker-pool size.
  std::map<std::string, std::vector<double>> by_series;
  for (const HomeResult& r : fleet.homes) {
    for (const auto& [name, value] : r.scalars) {
      fleet.scalar_totals[name] += value;
      by_series[name].push_back(value);
    }
    for (const auto& [name, h] : r.histograms) fleet.histograms[name].merge(h);
    if (r.ok()) ++fleet.homes_ok;
    fleet.total_frames += r.frames;
  }
  for (auto& [name, values] : by_series) {
    std::sort(values.begin(), values.end());
    SeriesStat stat;
    stat.homes = values.size();
    stat.min = values.front();
    stat.max = values.back();
    stat.median = values[values.size() / 2];
    for (const double v : values) stat.sum += v;
    fleet.series[name] = stat;
  }

  fleet.wall_ms = wall_ms_since(wall_start);
  return fleet;
}

}  // namespace hw::fleet
