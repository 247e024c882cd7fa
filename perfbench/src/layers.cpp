#include "workload.hpp"

#include <sched.h>

#include <algorithm>

namespace perfbench {

Summary summarize(const Batches& b, Tail tail) {
  Summary s;
  if (b.rates.empty()) return s;
  std::vector<double> sorted = b.rates;
  std::sort(sorted.begin(), sorted.end());
  // The faster half: every batch whose rate reaches the median.
  const double cut = sorted[(sorted.size() - 1) / 2];
  std::vector<double> fast_rates;
  for (const double r : b.rates) {
    if (r >= cut) fast_rates.push_back(r);
  }
  std::vector<double> pooled;
  std::vector<std::vector<double>> per_batch(b.rates.size());
  for (std::size_t i = 0; i < b.latency_us.size(); ++i) {
    const std::uint32_t batch = b.latency_batch[i];
    // Samples of a batch cut short by the storage cap have no rate.
    if (batch >= b.rates.size() || b.rates[batch] < cut) continue;
    pooled.push_back(b.latency_us[i]);
    if (tail == Tail::PerBatch) per_batch[batch].push_back(b.latency_us[i]);
  }
  s.samples = pooled.size();
  s.rate = median(fast_rates);
  s.p50_us = percentile(pooled, 0.50);
  if (tail == Tail::Pooled) {
    s.p99_us = percentile(pooled, 0.99);
  } else {
    std::vector<double> tails;
    for (auto& samples : per_batch) {
      if (!samples.empty()) tails.push_back(percentile(samples, 0.99));
    }
    s.p99_us = median(tails);
  }
  return s;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void report_end_to_end(Result& r, const EndToEnd& e) {
  r.add("work_rate", e.work_rate, "1/s");
  r.add("latency_p50_us", e.latency_p50_us, "us");
  r.add("setup_s", e.setup_s, "s");
  r.add("peak_rss_mb", e.peak_rss_mb, "MB");
}

void report_per_layer(Result& r, const PerLayer& p) {
  r.add("alloc.per_op", p.alloc_per_op, "count");
  r.add("alloc.bytes_per_op", p.alloc_bytes_per_op, "B");
  r.add("sim.events_per_op", p.sim_events_per_op, "count");
  r.add("sim.allocs_per_event", p.sim_allocs_per_event, "count");
  r.add("sim.link.dropped_frames", p.sim_link_dropped_frames, "count");
  r.add("net.parse_allocs_per_frame", p.net_parse_allocs_per_frame, "count");
  r.add("openflow.allocs_per_op", p.openflow_allocs_per_op, "count");
  r.add("openflow.alloc_bytes_per_op", p.openflow_alloc_bytes_per_op, "B");
  r.add("openflow.microflow_hit_ratio", p.openflow_microflow_hit_ratio, "ratio");
  r.add("openflow.fastpath_share", p.openflow_fastpath_share, "ratio");
  r.add("openflow.subtable_scans_per_lookup",
        p.openflow_subtable_scans_per_lookup, "count");
  r.add("openflow.packet_ins_per_op", p.openflow_packet_ins_per_op, "count");
  r.add("openflow.flow_mods_per_op", p.openflow_flow_mods_per_op, "count");
  r.add("openflow.channel.frames_partial_per_op",
        p.openflow_frames_partial_per_op, "count");
  r.add("openflow.channel.frames_coalesced_per_op",
        p.openflow_frames_coalesced_per_op, "count");
  r.add("nox.msgs_per_op", p.nox_msgs_per_op, "count");
  r.add("nox.allocs_per_op", p.nox_allocs_per_op, "count");
  r.add("homework.flows_installed_per_op", p.homework_flows_installed_per_op,
        "count");
  r.add("homework.dhcp.acks_per_home", p.homework_dhcp_acks_per_home, "count");
  r.add("homework.dns.forwarded_per_home", p.homework_dns_forwarded_per_home,
        "count");
  r.add("hwdb.inserts_per_op", p.hwdb_inserts_per_op, "count");
  r.add("hwdb.query_rows", p.hwdb_query_rows, "count");
  r.add("telemetry.series_per_home", p.telemetry_series_per_home, "count");
  r.add("snapshot.captures", p.snapshot_captures, "count");
  r.add("snapshot.bytes_per_capture", p.snapshot_bytes_per_capture, "B");
  r.add("residency.resumes", p.residency_resumes, "count");
  r.add("residency.evictions", p.residency_evictions, "count");
  r.add("residency.resident_peak", p.residency_resident_peak, "count");
  r.add("residency.image_bytes_stored", p.residency_image_bytes_stored, "B");
  r.add("live.frames_per_barrier", p.live_frames_per_barrier, "count");
  r.add("live.frame_bytes", p.live_frame_bytes, "B");
  r.add("trace.overhead_pct", p.trace_overhead_pct, "%");
  r.add("trace.span_cost_ns", p.trace_span_cost_ns, "ns");
  r.add("sim.self_pct", p.sim_self_pct, "%");
  r.add("openflow.self_pct", p.openflow_self_pct, "%");
  r.add("nox.self_pct", p.nox_self_pct, "%");
  r.add("ui.self_pct", p.ui_self_pct, "%");
  r.add("hwdb.self_pct", p.hwdb_self_pct, "%");
  r.add("live.self_pct", p.live_self_pct, "%");
}

double layer_self_pct(const std::string& layer, double wall_ns) {
  const std::string prefix = layer + ".";
  double self = 0;
  for (const Tracer::Aggregate& a : tracer().aggregates()) {
    if (a.name.rfind(prefix, 0) == 0) self += static_cast<double>(a.self_ns);
  }
  return 100.0 * ratio(self, wall_ns);
}

void add_span_details(Result& r) {
  for (const Tracer::Aggregate& a : tracer().aggregates()) {
    if (a.count == 0 || a.name == "trace.calibration") continue;
    r.detail("span." + a.name + ".count", static_cast<double>(a.count), "count");
    r.detail("span." + a.name + ".p50_ns", percentile_u32(a.durations_ns, 0.50),
             "ns");
    r.detail("span." + a.name + ".p99_ns", percentile_u32(a.durations_ns, 0.99),
             "ns");
    r.detail("span." + a.name + ".self_ns_mean",
             ratio(static_cast<double>(a.self_ns), static_cast<double>(a.count)),
             "ns");
  }
}

}  // namespace perfbench
