// fleet-live: a live::LiveFleet of kHomes homes with their app mixes on and
// kThreads workers, under residency (a resident cap below the fleet size,
// an idle watermark, sleeping through timers). A live::LiveServer serves a
// handful of "*" subscriptions and is pumped every barrier. On a fixed
// schedule the operator wakes a home it has seen hibernated and toggles a
// quarantine/release on a home. Whole-home stacks run in parallel; most of
// the work is hwdb exports, module timers, snapshot capture plus
// hibernate/wake at aligned barriers, and delta encoding.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "live/fleet.hpp"
#include "live/server.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace hw;

constexpr std::size_t kHomes = 32;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kMaxResident = 8;
constexpr Duration kIdleWatermark = 10 * kSecond;
constexpr std::size_t kSubscriptions = 4;
/// Barriers between the operator's visits to a new target home (2 virtual
/// seconds at the default 250 ms barrier interval). A visit wakes the target
/// if it is hibernated, toggles its quarantine half-way through, and checks
/// the block flow two barriers later: one barrier lands the mutation, the
/// next carries the reconciler's FlowMod to the datapath.
constexpr std::uint64_t kOperatorEvery = 8;
/// One batch is one checkpoint-aligned period.
constexpr std::uint64_t kBarriersPerBatch =
    live::LiveFleet::kCheckpointAlign / (250 * kMillisecond);
/// Past the first mass hibernation, into the steady wake/evict rhythm.
constexpr std::uint64_t kWarmupBarriers = 8 * kBarriersPerBatch;
/// The homes' hwdb rings, and with them the snapshot images every
/// hibernate and wake moves, keep growing for minutes of virtual time, so
/// the barrier cost drifts upward through any run. A deadline would make a
/// faster program measure a later, costlier stretch of the fleet's life;
/// instead each run pumps a fixed number of barriers, sized from --seconds
/// at this rate (what the seed commit sustains on a 4-core 2.1 GHz VM).
constexpr double kBarriersPerSecond = 100;

struct Fleet {
  // Declaration order is teardown order in reverse: the server goes before
  // the fleet it serves, the registry last.
  telemetry::MetricRegistry registry;
  std::unique_ptr<live::LiveFleet> fleet;
  std::unique_ptr<live::LiveServer> server;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t barrier = 0;  // barriers pumped since start
  std::uint64_t seed_offset = 0;
  std::uint32_t target = 0;
  std::vector<bool> quarantined = std::vector<bool>(kHomes, false);
  std::uint64_t wakes = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t block_misses = 0;
  std::uint64_t bad_macs = 0;
  std::optional<std::uint32_t> block_check;  // quarantined home to verify
  int pump_span = tracer().intern("live.pump");
  int operator_span = tracer().intern("live.operator");
};

struct Window {
  double rate = 0;                  // home·virtual-s per wall-s
  std::vector<double> barrier_us;   // every pump
  std::vector<double> ordinary_ms;  // neither aligned nor paging a home in
  std::vector<double> aligned_ms;   // kCheckpointAlign barriers
  std::vector<double> wake_ms;      // barriers that page in a woken home
  std::uint64_t barriers = 0;
  double wall_ns = 0;
};

live::LiveConfig fleet_config(std::uint64_t seed) {
  live::LiveConfig config;
  config.homes = kHomes;
  config.threads = kThreads;
  config.seed = seed;
  config.run_apps = true;
  config.residency.max_resident = kMaxResident;
  config.residency.idle_watermark = kIdleWatermark;
  config.residency.wake_on_due = false;
  return config;
}

/// The operator's move before barrier `f.barrier`, then one pump.
void pump_barrier(Fleet& f, Window& w) {
  const std::uint64_t b = f.barrier;
  bool waking = false;
  {
    Span s(f.operator_span);
    if (b % kOperatorEvery == 0) {
      f.target = static_cast<std::uint32_t>((f.seed_offset + 7 * (b / kOperatorEvery)) % kHomes);
      if (f.fleet->status(f.target).hibernated) {
        (void)f.fleet->submit(live::wake_home(f.target));
        waking = true;
        ++f.wakes;
      }
    } else if (b % kOperatorEvery == kOperatorEvery / 2) {
      const std::string mac = f.fleet->device_mac(f.target, "dev0");
      if (mac.empty()) {
        ++f.bad_macs;
      } else if (f.quarantined[f.target]) {
        (void)f.fleet->submit(live::release(f.target, mac));
        f.quarantined[f.target] = false;
      } else {
        (void)f.fleet->submit(live::quarantine(f.target, mac));
        f.quarantined[f.target] = true;
        f.block_check = f.target;
        ++f.quarantines;
      }
    }
  }
  const std::int64_t t0 = now_ns();
  {
    Span s(f.pump_span);
    f.server->pump();
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  ++f.barrier;
  if (f.block_check && f.barrier % kOperatorEvery == kOperatorEvery / 2 + 2) {
    if (f.fleet->status(*f.block_check).block_flows == 0) ++f.block_misses;
    f.block_check.reset();
  }
  UncountedScope uncounted;
  const bool aligned = (f.fleet->now() - homework::HomeworkRouter::kBootSettle) %
                           live::LiveFleet::kCheckpointAlign == 0;
  w.barrier_us.push_back(ms * 1e3);
  if (aligned) {
    w.aligned_ms.push_back(ms);
  } else if (waking) {
    w.wake_ms.push_back(ms);
  } else {
    w.ordinary_ms.push_back(ms);
  }
  ++w.barriers;
}

void run_batch(Fleet& f, Window& w) {
  for (std::uint64_t i = 0; i < kBarriersPerBatch; ++i) pump_barrier(f, w);
}

Window run_window(Fleet& f, double seconds) {
  Window w;
  const auto batches = static_cast<std::uint64_t>(std::max(
      1.0, std::round(seconds * kBarriersPerSecond / kBarriersPerBatch)));
  const Timestamp v0 = f.fleet->now();
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < batches; ++i) run_batch(f, w);
  w.wall_ns = static_cast<double>(now_ns() - t0);
  w.rate = static_cast<double>(kHomes) *
           (static_cast<double>(f.fleet->now() - v0) / kSecond) / (w.wall_ns / 1e9);
  return w;
}

std::unique_ptr<Fleet> build_fleet(std::uint64_t seed) {
  auto f = std::make_unique<Fleet>();
  std::uint64_t mix = seed;
  f->seed_offset = splitmix64(mix) % kHomes;
  f->fleet = std::make_unique<live::LiveFleet>(fleet_config(seed), f->registry);
  f->fleet->start();
  Fleet* fp = f.get();
  f->server = std::make_unique<live::LiveServer>(
      *f->fleet,
      [fp](live::ClientAddress, const Bytes& datagram) {
        ++fp->frames;
        fp->frame_bytes += datagram.size();
      },
      f->registry);
  for (std::size_t s = 0; s < kSubscriptions; ++s) {
    hwdb::rpc::SubscribeSeriesRequest req;
    req.pattern = "*";
    // Half watch the merged fleet, half one home each.
    req.home = s % 2 == 0 ? hwdb::rpc::kAllHomes
                          : static_cast<std::uint32_t>((f->seed_offset + 11 * s) % kHomes);
    const hwdb::rpc::Request wire{static_cast<std::uint32_t>(s + 1), req};
    f->server->handle_datagram(static_cast<live::ClientAddress>(s),
                               hwdb::rpc::encode(wire));
  }
  Window warm;
  for (std::uint64_t b = 0; b < kWarmupBarriers; ++b) pump_barrier(*f, warm);
  return f;
}

double merged(const std::map<std::string, double>& m, const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// End-of-run checks: every device bound, no datapath in fail-safe, every
/// quarantine visible as a block flow, the operator's targets resolvable.
void check_outputs(Fleet& f, Result& r) {
  std::size_t unbound = 0;
  for (std::uint32_t h = 0; h < kHomes; ++h) {
    const live::LiveHomeStatus st = f.fleet->status(h);
    if (st.devices == 0 || st.devices_bound != st.devices) ++unbound;
  }
  const double fail_safe = merged(f.fleet->scalars(), "openflow.datapath.fail_safe");
  r.check(unbound == 0, std::to_string(unbound) + " homes have unbound devices");
  r.check(fail_safe == 0, "datapaths in fail-safe at the end");
  r.check(f.block_misses == 0, std::to_string(f.block_misses) +
                                   " quarantines showed no block flow");
  r.check(f.bad_macs == 0, "operator targets without a dev0 device");
  r.attempted += f.quarantines + f.wakes + f.barrier;
  r.failed += f.block_misses + f.bad_macs + unbound + (fail_safe != 0 ? 1 : 0);
}

}  // namespace

Result run_fleet_live(const Options& opts) {
  Result r;
  std::set<std::string> digests;
  std::unique_ptr<Fleet> fleet;
  const auto one = [&] {
    fleet.reset();
    const std::int64_t t0 = now_ns();
    fleet = build_fleet(opts.seed);
    const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
    digests.insert(digest(fleet->fleet->fingerprint()));
    return seconds;
  };
  const std::vector<double> setup_s = repeat_setups(opts.trace ? 1 : kSetups, one);
  // The replay contract: a seed fixes the run, so every set-up's
  // fingerprint at the end of warm-up is bit-identical.
  r.check(digests.size() == 1, "fleet fingerprints differ between set-ups of one seed");
  r.notes["fingerprint_digest"] = *digests.begin();
  r.notes["fingerprint_at_barrier"] = std::to_string(kWarmupBarriers);
  Fleet& f = *fleet;

  if (!opts.trace) {
    Window w = run_window(f, opts.seconds);
    check_outputs(f, r);
    EndToEnd e;
    e.work_rate = w.rate;
    e.latency_p50_us = percentile(w.barrier_us, 0.50);
    e.setup_s = median(setup_s);
    e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(r, e);
    r.detail("home_sim_rate", e.work_rate, "1/s");
    r.detail("pump_p99_us", percentile(w.barrier_us, 0.99), "us");
    r.detail("barrier_p50_ms", median(w.ordinary_ms), "ms");
    r.detail("checkpoint_barrier_p50_ms", median(w.aligned_ms), "ms");
    r.detail("wake_p50_ms", median(w.wake_ms), "ms");
    r.detail("barriers", static_cast<double>(w.barriers), "count");
    r.detail("wake_barriers", static_cast<double>(w.wake_ms.size()), "count");
    r.detail("aligned_barriers", static_cast<double>(w.aligned_ms.size()), "count");
    r.detail("error_ratio", ratio(static_cast<double>(r.failed),
                                  static_cast<double>(r.attempted)), "ratio");
    return r;
  }

  // Traced run. 1) One fixed batch (an aligned period) for the counts.
  PerLayer p;
  const auto sc_before = f.fleet->scalars();
  const AllocTotals allocs0 = process_allocs();
  const double resumes0 = f.registry.total("residency.resumes").value_or(0);
  const double evictions0 = f.registry.total("residency.evictions").value_or(0);
  const double logical0 = static_cast<double>(f.fleet->image_store().logical_bytes());
  const std::uint64_t frames0 = f.frames;
  const std::uint64_t frame_bytes0 = f.frame_bytes;
  tracer().reset();
  tracer().set_enabled(true);
  Window count_window;
  run_batch(f, count_window);
  tracer().set_enabled(false);
  const AllocTotals allocs = process_allocs() - allocs0;
  const auto sc_after = f.fleet->scalars();
  const auto delta = [&](const char* name) {
    return merged(sc_after, name) - merged(sc_before, name);
  };
  const double ops = static_cast<double>(kHomes) * kBarriersPerBatch * 0.25;
  const double evictions = f.registry.total("residency.evictions").value_or(0) - evictions0;
  p.alloc_per_op = ratio(static_cast<double>(allocs.count), ops);
  p.alloc_bytes_per_op = ratio(static_cast<double>(allocs.bytes), ops);
  p.sim_link_dropped_frames = delta("sim.link.dropped_frames");
  const double hits = delta("openflow.datapath.microflow_hits");
  const double misses = delta("openflow.datapath.microflow_misses");
  p.openflow_microflow_hit_ratio = ratio(hits, hits + misses);
  p.openflow_fastpath_share =
      1.0 - ratio(delta("openflow.datapath.packet_ins"), hits + misses);
  p.openflow_subtable_scans_per_lookup =
      ratio(delta("openflow.flow_table.subtable_scans"),
            delta("openflow.flow_table.lookups"));
  p.openflow_packet_ins_per_op = ratio(delta("openflow.datapath.packet_ins"), ops);
  p.openflow_flow_mods_per_op = ratio(delta("openflow.datapath.flow_mods"), ops);
  p.openflow_frames_partial_per_op = ratio(delta("openflow.channel.frames_partial"), ops);
  p.openflow_frames_coalesced_per_op =
      ratio(delta("openflow.channel.frames_coalesced"), ops);
  p.nox_msgs_per_op = ratio(delta("openflow.channel.rx_messages"), ops);
  p.homework_flows_installed_per_op =
      ratio(delta("homework.forwarding.flows_installed"), ops);
  p.homework_dhcp_acks_per_home = merged(sc_after, "homework.dhcp.acks") / kHomes;
  p.homework_dns_forwarded_per_home = merged(sc_after, "homework.dns.forwarded") / kHomes;
  p.hwdb_inserts_per_op = ratio(delta("hwdb.database.inserts"), ops);
  p.telemetry_series_per_home = static_cast<double>(f.fleet->scalars(0).size());
  p.snapshot_captures = evictions;
  p.snapshot_bytes_per_capture = ratio(
      static_cast<double>(f.fleet->image_store().logical_bytes()) - logical0, evictions);
  p.residency_resumes = f.registry.total("residency.resumes").value_or(0) - resumes0;
  p.residency_evictions = evictions;
  p.residency_resident_peak = static_cast<double>(f.fleet->resident_peak());
  p.residency_image_bytes_stored = static_cast<double>(f.fleet->image_store().stored_bytes());
  p.live_frames_per_barrier = ratio(static_cast<double>(f.frames - frames0),
                                    static_cast<double>(count_window.barriers));
  p.live_frame_bytes = ratio(static_cast<double>(f.frame_bytes - frame_bytes0),
                             static_cast<double>(f.frames - frames0));

  // 2) Untraced and traced windows over the same stretch of the fleet's
  // life: the barrier cost drifts, so the traced window runs on a second
  // fleet of the same seed, brought to the same barrier first.
  const Window plain = run_window(f, opts.seconds / 2);
  check_outputs(f, r);
  fleet.reset();
  fleet = build_fleet(opts.seed);
  Fleet& g = *fleet;
  Window align;
  run_batch(g, align);
  tracer().reset();
  tracer().set_enabled(true);
  const Window traced = run_window(g, opts.seconds / 2);
  tracer().set_enabled(false);
  const double untraced_rate = plain.rate;
  const double traced_rate = traced.rate;
  p.trace_overhead_pct = 100.0 * ratio(untraced_rate - traced_rate, untraced_rate);
  p.live_self_pct = layer_self_pct("live", traced.wall_ns);
  add_span_details(r);
  r.detail("home_sim_rate.untraced", untraced_rate, "1/s");
  r.detail("home_sim_rate.traced", traced_rate, "1/s");
  tracer().write_spans(opts.out_dir + "/fleet-live.spans.tsv");
  p.trace_span_cost_ns = tracer().measure_span_cost_ns();
  report_per_layer(r, p);
  check_outputs(g, r);
  return r;
}

}  // namespace perfbench
