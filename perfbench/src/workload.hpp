// Shared shape of the three workloads. Every run reports the same metric
// names (BENCHMARK.json): an untraced run the end-to-end set, a traced run
// the per-layer set. A layer a workload does not reach reports 0 for its
// counts and shares; every time metric is measured on every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

Result run_home_steady(const Options& opts);
Result run_flow_churn(const Options& opts);
Result run_fleet_live(const Options& opts);

/// End-to-end figures, mapped per workload onto the generic names:
///   work_rate       forwarded packets / flow set-ups / home·virtual-s
///                   per wall-second
///   latency_p50_us  UI refresh / flow set-up / operator barrier, wall µs
/// Each workload's p99 is a detail of the report, not a gated metric: a
/// shift in the shared machine's load moves it past any bound the harness
/// allows (10-seed spreads up to 0.26 here, against 0.19 for p50).
struct EndToEnd {
  double work_rate = 0;
  double latency_p50_us = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
};
void report_end_to_end(Result& r, const EndToEnd& e);

/// Per-layer figures. "per_op" divides by the workload's unit of work
/// (forwarded packet / flow set-up / home·virtual-second). Counts come from
/// one fixed batch right after set-up, so they repeat exactly per seed;
/// shares come from the traced window.
struct PerLayer {
  double alloc_per_op = 0;
  double alloc_bytes_per_op = 0;
  double sim_events_per_op = 0;
  double sim_allocs_per_event = 0;
  double sim_link_dropped_frames = 0;
  double net_parse_allocs_per_frame = 0;
  double openflow_allocs_per_op = 0;
  double openflow_alloc_bytes_per_op = 0;
  double openflow_microflow_hit_ratio = 0;
  double openflow_fastpath_share = 0;
  double openflow_subtable_scans_per_lookup = 0;
  double openflow_packet_ins_per_op = 0;
  double openflow_flow_mods_per_op = 0;
  double openflow_frames_partial_per_op = 0;
  double openflow_frames_coalesced_per_op = 0;
  double nox_msgs_per_op = 0;
  double nox_allocs_per_op = 0;
  double homework_flows_installed_per_op = 0;
  double homework_dhcp_acks_per_home = 0;
  double homework_dns_forwarded_per_home = 0;
  double hwdb_inserts_per_op = 0;
  double hwdb_query_rows = 0;
  double telemetry_series_per_home = 0;
  double snapshot_captures = 0;
  double snapshot_bytes_per_capture = 0;
  double residency_resumes = 0;
  double residency_evictions = 0;
  double residency_resident_peak = 0;
  double residency_image_bytes_stored = 0;
  double live_frames_per_barrier = 0;
  double live_frame_bytes = 0;
  double trace_overhead_pct = 0;
  double trace_span_cost_ns = 0;
  double sim_self_pct = 0;
  double openflow_self_pct = 0;
  double nox_self_pct = 0;
  double ui_self_pct = 0;
  double hwdb_self_pct = 0;
  double live_self_pct = 0;
};
void report_per_layer(Result& r, const PerLayer& p);

/// Self time of every span named "<layer>.*", as a percentage of wall_ns.
double layer_self_pct(const std::string& layer, double wall_ns);
/// Adds count, p50, p99 and self-time details for every span seen.
void add_span_details(Result& r);

/// The recorded batches of one measuring window: each batch's work rate and
/// the wall latency samples taken inside it.
/// Sample storage is reserved up front and capped, so neither a vector
/// reallocation stalls a measured operation nor does memory grow with speed.
struct Batches {
  static constexpr std::size_t kMaxSamples = 1 << 18;

  Batches() {
    UncountedScope uncounted;
    rates.reserve(1 << 16);
    latency_us.reserve(kMaxSamples);
    latency_batch.reserve(kMaxSamples);
  }

  std::vector<double> rates;
  std::vector<double> latency_us;
  std::vector<std::uint32_t> latency_batch;  // index into rates per sample

  void sample(double us) {
    if (latency_us.size() == kMaxSamples) return;
    latency_us.push_back(us);
    latency_batch.push_back(static_cast<std::uint32_t>(rates.size()));
  }
  void close_batch(double rate) {
    UncountedScope uncounted;
    rates.push_back(rate);
  }
};

/// Figures from the faster half of the batches (ranked by rate): the rate
/// is their median (the 75th percentile of all batches) and p50 pools their
/// samples. On a machine shared with other tenants the slower half mostly
/// measures the neighbours; a change to the program moves both halves.
/// p99 either pools the samples too, or — for workloads whose every batch
/// holds well over a thousand samples — is each batch's own p99, median
/// over the faster half, which keeps one stalled batch from setting it.
struct Summary {
  double rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::size_t samples = 0;
};
enum class Tail { Pooled, PerBatch };
Summary summarize(const Batches& b, Tail tail);

/// CPUs the calling thread may run on, and pinning to one or all of them.
std::vector<int> allowed_cpus();
void pin_to(const std::vector<int>& cpus);

/// Runs measured batches of a single-threaded workload until `seconds` of
/// wall time have passed. On a shared machine one CPU can run this code at
/// half the speed of another for seconds at a time, which would decide a
/// whole run; so every kProbeEvery the thread first runs one unrecorded
/// probe batch on each allowed CPU and then stays on the fastest.
/// `batch(record)` runs one batch and returns its rate; with record false it
/// must keep its samples out of the run's figures (its work still counts
/// toward the output checks).
template <typename F>
void run_placed(double seconds, F&& batch) {
  constexpr std::int64_t kProbeEvery = 1'000'000'000;
  const std::vector<int> cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_probe = start;
  do {
    if (cpus.size() > 1 && now_ns() >= next_probe) {
      int best = cpus.front();
      double best_rate = -1;
      for (const int cpu : cpus) {
        pin_to({cpu});
        const double rate = batch(false);
        if (rate > best_rate) {
          best_rate = rate;
          best = cpu;
        }
      }
      pin_to({best});
      next_probe = now_ns() + kProbeEvery;
    }
    batch(true);
  } while (now_ns() < deadline);
  pin_to(cpus);
}

/// Runs `one()` — a set-up returning its seconds — `count` times.
template <typename F>
std::vector<double> repeat_setups(int count, F&& one) {
  std::vector<double> times;
  for (int i = 0; i < count; ++i) times.push_back(one());
  return times;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace perfbench
