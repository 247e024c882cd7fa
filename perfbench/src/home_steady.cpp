// home-steady: one Figure-5 home (HomeScenario, permit-all, every device
// bound) plus wired load devices carrying a fixed set of long-lived UDP
// flows to the upstream services at a constant virtual rate, half with
// minimum-size and half with MTU-size payloads. A ui::BandwidthMonitor is
// refreshed at a fixed virtual cadence. After set-up nearly every packet is
// a microflow hit on a MAC-rewrite routed hop, so the datapath fast path,
// the link hop and event dispatch do the work; the refresh is the paper's
// hwdb read path.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "shims.hpp"
#include "ui/bandwidth_monitor.hpp"
#include "workload.hpp"
#include "workload/scenario.hpp"

namespace perfbench {
namespace {

using namespace hw;

constexpr std::size_t kLoadDevices = 4;
constexpr std::size_t kFlowsPerDevice = 12;
/// Each flow sends one packet per tick: 250 packets per virtual second.
constexpr Duration kTick = 4 * kMillisecond;
constexpr Duration kUiEvery = 50 * kMillisecond;
/// One batch is one virtual second: 12,000 packets and 20 UI refreshes
/// (about 6,000 refreshes in a 10 s run, so p99 has dozens beyond it).
constexpr int kSlicesPerBatch = 20;
/// Fills the monitor's 10 s window with flow rows, and is long enough (about
/// a wall-second) that a set-up's time averages over the second-scale swings
/// of a shared machine instead of catching one of them.
constexpr Duration kWarmup = 60 * kSecond;
constexpr std::size_t kMinPayload = 18;    // 60-byte Ethernet frame
constexpr std::size_t kMtuPayload = 1472;  // 1514-byte Ethernet frame
constexpr std::uint16_t kUplinkPort = 1;

/// The upstream services HomeScenario registers (www.bbc.co.uk, ...).
const Ipv4Address kServices[] = {
    {212, 58, 233, 1}, {31, 13, 72, 1},   {31, 13, 72, 2},
    {45, 57, 3, 1},    {212, 58, 244, 9}, {142, 250, 1, 17},
    {52, 113, 194, 132}, {40, 64, 89, 7}, {91, 189, 91, 38},
    {93, 184, 216, 34}};

struct Flow {
  Ipv4Address dst;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::size_t payload = 0;
};

struct Home {
  // Declaration order is teardown order in reverse: the registry outlives
  // every instrument, the scenario outlives the timers and the monitor.
  telemetry::MetricRegistry registry;
  std::unique_ptr<workload::HomeScenario> scenario;
  std::vector<std::size_t> load_index;  // into scenario->devices()
  std::vector<std::string> load_macs;
  std::vector<std::vector<Flow>> flows;
  std::vector<std::unique_ptr<LinkShim>> shims;
  std::vector<Bytes> captured;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> timers;
  std::unique_ptr<ui::BandwidthMonitor> monitor;
  std::string ui_query;
  Timestamp cursor = 0;  // virtual end of the last slice
  std::uint64_t sent = 0;
  std::uint64_t send_failed = 0;
  /// Uplink data frames and link drops before the load started; the output
  /// check compares totals since then, after draining frames in flight.
  double uplink_before_load = 0;
  double dropped_before_load = 0;
  std::string error;
};

double total(const telemetry::MetricRegistry& reg, const char* name) {
  return reg.total(name).value_or(0.0);
}

/// Uplink frames the datapath transmitted, excluding DNS queries the proxy
/// forwarded: in steady state every one of them is a load packet.
double uplink_data_frames(Home& h) {
  const auto* c = h.scenario->router().datapath().port_counters(kUplinkPort);
  return static_cast<double>(c != nullptr ? c->tx_packets : 0) -
         total(h.registry, "homework.dns.forwarded");
}

std::unique_ptr<Home> build_home(std::uint64_t seed, bool traced) {
  auto h = std::make_unique<Home>();
  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  config.router.lease_secs = 86400;  // no renewals inside any run
  // Rings that fill within the first seconds of measuring, so the home's
  // memory stops growing early and peak RSS does not depend on how far a
  // run gets. The monitor's 10 s window needs 480 Flows rows.
  config.router.event_export.flows_capacity = 4096;
  config.router.metrics_export.capacity = 8192;
  config.seed = seed;
  h->scenario = std::make_unique<workload::HomeScenario>(config, h->registry);
  workload::HomeScenario& s = *h->scenario;
  s.populate_standard_home();
  for (std::size_t d = 0; d < kLoadDevices; ++d) {
    h->load_index.push_back(s.add_device(
        {"load" + std::to_string(d), workload::DeviceKind::Laptop, std::nullopt}));
  }
  s.start();
  s.start_dhcp_all();
  if (!s.wait_all_bound()) {
    h->error = "not every device bound during set-up";
    return h;
  }

  // Seed-derived flow set: destinations, ports and tick phases vary with
  // the seed; the amount and shape of the work does not.
  Rng rng(seed ^ 0x5eed5eed5eedULL);
  std::set<std::uint32_t> used_ports;
  for (std::size_t d = 0; d < kLoadDevices; ++d) {
    auto& dev = s.devices()[h->load_index[d]];
    h->load_macs.push_back(dev.host->mac().to_string());
    std::vector<Flow> flows;
    for (std::size_t f = 0; f < kFlowsPerDevice; ++f) {
      Flow flow;
      flow.dst = kServices[rng.uniform(std::size(kServices))];
      do {
        flow.sport = static_cast<std::uint16_t>(rng.uniform_range(40000, 59999));
      } while (!used_ports.insert(flow.sport).second);
      flow.dport = static_cast<std::uint16_t>(rng.uniform_range(20000, 29999));
      flow.payload = f % 2 == 0 ? kMinPayload : kMtuPayload;
      flows.push_back(flow);
    }
    h->flows.push_back(std::move(flows));
  }

  homework::HomeworkRouter& router = s.router();
  h->monitor = std::make_unique<ui::BandwidthMonitor>(
      router.db(), ui::BandwidthMonitor::Config{});
  h->ui_query = "SELECT device, app, sum(bytes) FROM Flows [RANGE " +
                std::to_string(ui::BandwidthMonitor::Config{}.window_secs) +
                " SECONDS] GROUP BY device, app";

  if (traced) {
    for (const std::size_t idx : h->load_index) {
      auto& dev = s.devices()[idx];
      h->shims.push_back(std::make_unique<LinkShim>(
          router.datapath().ingress(dev.attachment.port), &h->captured));
      dev.attachment.link->a_to_b().connect(h->shims.back().get());
    }
  }

  h->uplink_before_load = uplink_data_frames(*h);
  h->dropped_before_load = total(h->registry, "sim.link.dropped_frames");
  Home* hp = h.get();
  for (std::size_t d = 0; d < kLoadDevices; ++d) {
    sim::Host* host = s.devices()[h->load_index[d]].host.get();
    const std::vector<Flow>* flows = &h->flows[d];
    h->timers.push_back(std::make_unique<sim::PeriodicTimer>(
        s.loop(), kTick, [hp, host, flows] {
          for (const Flow& f : *flows) {
            if (host->send_udp(f.dst, f.sport, f.dport, f.payload)) {
              ++hp->sent;
            } else {
              ++hp->send_failed;
            }
          }
        }));
    h->timers.back()->start_at(s.loop().now() +
                               static_cast<Duration>(rng.uniform(kTick)));
  }
  s.run_for(kWarmup);
  h->cursor = s.loop().now();
  return h;
}

struct Window {
  /// Rates are forwarded packets per wall-second inside run_until; the
  /// latency samples are the wall time of each refresh().
  Batches batches;
  std::uint64_t refreshes = 0;
  std::uint64_t probe_refreshes = 0;  // refreshes in unrecorded probe batches
  std::uint64_t refresh_misses = 0;   // refreshes missing a load device
  std::uint64_t packets = 0;
  double wall_ns = 0;
};

struct Spans {
  int run = tracer().intern("sim.run_until");
  int refresh = tracer().intern("ui.refresh");
  int query = tracer().intern("hwdb.query");
};

/// One virtual second: twenty slices of traffic, each followed by a refresh.
/// In the traced run each refresh is followed by a direct query() of the
/// monitor's own text, so the query's share of the refresh can be split off.
void run_batch(Home& h, Window& w, const Spans& spans, std::size_t* query_rows) {
  workload::HomeScenario& s = *h.scenario;
  const std::uint64_t sent0 = h.sent;
  double run_ns = 0;
  for (int k = 0; k < kSlicesPerBatch; ++k) {
    h.cursor += kUiEvery;
    const std::int64_t t0 = now_ns();
    {
      Span span(spans.run);
      s.loop().run_until(h.cursor);
    }
    const std::int64_t t1 = now_ns();
    {
      Span span(spans.refresh);
      h.monitor->refresh();
    }
    const std::int64_t t2 = now_ns();
    run_ns += static_cast<double>(t1 - t0);
    w.batches.sample(static_cast<double>(t2 - t1) / 1e3);
    ++w.refreshes;
    std::size_t seen = 0;
    for (const std::string& mac : h.load_macs) {
      for (const auto& d : h.monitor->devices()) {
        if (d.device == mac) {
          ++seen;
          break;
        }
      }
    }
    if (seen != h.load_macs.size()) ++w.refresh_misses;
    if (tracer().enabled()) {
      Span span(spans.query);
      auto rs = s.router().db().query(h.ui_query);
      if (rs && query_rows != nullptr) *query_rows = rs.value().rows.size();
    }
  }
  const std::uint64_t packets = h.sent - sent0;
  w.packets += packets;
  w.batches.close_batch(static_cast<double>(packets) / (run_ns / 1e9));
}

Window run_window(Home& h, double seconds, const Spans& spans) {
  Window w;
  Window probe;  // reused: its reserved sample storage is allocated once
  const std::int64_t t0 = now_ns();
  run_placed(seconds, [&](bool record) {
    Window& into = record ? w : probe;
    run_batch(h, into, spans, nullptr);
    return into.batches.rates.back();
  });
  w.wall_ns = static_cast<double>(now_ns() - t0);
  w.probe_refreshes = probe.refreshes;
  w.refresh_misses += probe.refresh_misses;
  return w;
}

/// Output checks shared by both run kinds: every packet the load devices
/// sent left on the uplink, no link dropped a frame, every refresh saw
/// every load device.
void check_outputs(Home& h, Result& r, std::uint64_t refreshes,
                   std::uint64_t refresh_misses) {
  for (auto& t : h.timers) t->stop();
  h.scenario->run_for(10 * kMillisecond);  // drain frames in flight
  const double sent = static_cast<double>(h.sent);
  const double left = uplink_data_frames(h) - h.uplink_before_load;
  const double dropped =
      total(h.registry, "sim.link.dropped_frames") - h.dropped_before_load;
  r.attempted += static_cast<std::uint64_t>(sent) + refreshes + h.send_failed;
  const double lost = std::max(0.0, sent - left);
  r.failed += static_cast<std::uint64_t>(lost) + refresh_misses + h.send_failed;
  r.check(left == sent, "uplink carried " + std::to_string(left) + " load frames, " +
                            std::to_string(sent) + " were sent");
  r.check(dropped == 0, "links dropped " + std::to_string(dropped) + " frames");
  r.check(h.send_failed == 0,
          std::to_string(h.send_failed) + " sends refused by unbound hosts");
  r.check(refresh_misses == 0, std::to_string(refresh_misses) +
                                   " refreshes missed a load device");
}

}  // namespace

Result run_home_steady(const Options& opts) {
  Result r;
  const Spans spans;

  // Set-up, repeated; every repetition must reach the same telemetry state.
  std::set<std::string> digests;
  std::unique_ptr<Home> home;
  std::string error;
  const auto one = [&] {
    home.reset();
    const std::int64_t t0 = now_ns();
    home = build_home(opts.seed, opts.trace);
    const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
    if (!home->error.empty()) {
      error = home->error;
    } else {
      digests.insert(digest(home->registry.scalars()));
    }
    return seconds;
  };
  const std::vector<double> setup_s = repeat_setups(opts.trace ? 1 : kSetups, one);
  if (!error.empty()) {
    r.check(false, error);
    r.attempted = r.failed = 1;
    return r;
  }
  r.check(digests.size() == 1, "set-ups of one seed reached different states");
  r.notes["state_digest"] = *digests.begin();
  Home& h = *home;
  workload::HomeScenario& s = *h.scenario;

  if (!opts.trace) {
    const Window w = run_window(h, opts.seconds, spans);
    check_outputs(h, r, w.refreshes + w.probe_refreshes, w.refresh_misses);
    const Summary sum = summarize(w.batches, Tail::Pooled);
    EndToEnd e;
    e.work_rate = sum.rate;
    e.latency_p50_us = sum.p50_us;
    e.setup_s = median(setup_s);
    e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(r, e);
    r.detail("fwd_pps", e.work_rate, "1/s");
    r.detail("ui_refresh_p50_us", e.latency_p50_us, "us");
    r.detail("ui_refresh_p99_us", sum.p99_us, "us");
    r.detail("ui_refreshes", static_cast<double>(w.refreshes), "count");
    r.detail("ui_refreshes_summarized", static_cast<double>(sum.samples), "count");
    r.detail("batches", static_cast<double>(w.batches.rates.size()), "count");
    r.detail("packets", static_cast<double>(w.packets), "count");
    r.detail("error_ratio", ratio(static_cast<double>(r.failed),
                                  static_cast<double>(r.attempted)), "ratio");
    return r;
  }

  // Traced run. 1) One fixed batch right after set-up for the
  // deterministic work counts.
  PerLayer p;
  const auto reg_before = h.registry.scalars();
  const std::uint64_t events0 = s.loop().executed();
  const AllocTotals allocs0 = thread_allocs();
  tracer().reset();
  tracer().set_enabled(true);
  Window count_window;
  std::size_t query_rows = 0;
  run_batch(h, count_window, spans, &query_rows);
  tracer().set_enabled(false);
  const AllocTotals allocs = thread_allocs() - allocs0;
  const auto reg_after = h.registry.scalars();
  const auto delta = [&](const char* name) {
    const auto a = reg_after.find(name);
    const auto b = reg_before.find(name);
    return (a == reg_after.end() ? 0.0 : a->second) -
           (b == reg_before.end() ? 0.0 : b->second);
  };
  const auto lifetime = [&](const char* name) {
    const auto a = reg_after.find(name);
    return a == reg_after.end() ? 0.0 : a->second;
  };
  const double ops = static_cast<double>(count_window.packets);
  const double events = static_cast<double>(s.loop().executed() - events0);
  const Tracer::Aggregate& run_agg = tracer().aggregate(spans.run);
  const Tracer::Aggregate& ingress = tracer().aggregate(tracer().intern("openflow.ingress"));
  p.alloc_per_op = ratio(static_cast<double>(allocs.count), ops);
  p.alloc_bytes_per_op = ratio(static_cast<double>(allocs.bytes), ops);
  p.sim_events_per_op = ratio(events, ops);
  p.sim_allocs_per_event = ratio(static_cast<double>(run_agg.allocs.count), events);
  p.sim_link_dropped_frames = delta("sim.link.dropped_frames");
  p.openflow_allocs_per_op = ratio(static_cast<double>(ingress.allocs.count), ops);
  p.openflow_alloc_bytes_per_op = ratio(static_cast<double>(ingress.allocs.bytes), ops);
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
  p.homework_dhcp_acks_per_home = lifetime("homework.dhcp.acks");
  p.homework_dns_forwarded_per_home = lifetime("homework.dns.forwarded");
  p.hwdb_inserts_per_op = ratio(delta("hwdb.database.inserts"), ops);
  p.hwdb_query_rows = static_cast<double>(query_rows);
  p.telemetry_series_per_home = static_cast<double>(
      reg_after.size() + h.registry.histogram_states().size());

  // The net layer: the captured ingress frames replayed through its public
  // parser — allocations per parse (deterministic) and wall time per parse.
  {
    const AllocTotals a0 = thread_allocs();
    for (const Bytes& frame : h.captured) (void)net::ParsedPacket::parse(frame);
    p.net_parse_allocs_per_frame =
        ratio(static_cast<double>((thread_allocs() - a0).count),
              static_cast<double>(h.captured.size()));
    constexpr int kRounds = 200;
    const std::int64_t t0 = now_ns();
    std::size_t ok = 0;
    for (int i = 0; i < kRounds; ++i) {
      for (const Bytes& frame : h.captured) {
        ok += net::ParsedPacket::parse(frame).ok() ? 1 : 0;
      }
    }
    r.detail("net.parse_ns", ratio(static_cast<double>(now_ns() - t0),
                                   static_cast<double>(kRounds * h.captured.size())),
             "ns");
    r.check(ok == kRounds * h.captured.size(), "captured frames failed to parse");
  }

  // 2) Untraced then traced windows of equal length: the tracing overhead
  // and the per-layer shares of wall time.
  const Window plain = run_window(h, opts.seconds / 2, spans);
  tracer().reset();
  tracer().set_enabled(true);
  const std::uint64_t traced_events0 = s.loop().executed();
  const Window traced = run_window(h, opts.seconds / 2, spans);
  const double traced_events = static_cast<double>(s.loop().executed() - traced_events0);
  tracer().set_enabled(false);
  const double untraced_rate = summarize(plain.batches, Tail::Pooled).rate;
  const double traced_rate = summarize(traced.batches, Tail::Pooled).rate;
  p.trace_overhead_pct = 100.0 * ratio(untraced_rate - traced_rate, untraced_rate);
  p.sim_self_pct = layer_self_pct("sim", traced.wall_ns);
  p.openflow_self_pct = layer_self_pct("openflow", traced.wall_ns);
  p.ui_self_pct = layer_self_pct("ui", traced.wall_ns);
  p.hwdb_self_pct = layer_self_pct("hwdb", traced.wall_ns);
  add_span_details(r);
  const double refresh_p50 = percentile_u32(tracer().aggregate(spans.refresh).durations_ns, 0.5);
  const double query_p50 = percentile_u32(tracer().aggregate(spans.query).durations_ns, 0.5);
  r.detail("ui.refresh_self_ns.p50", refresh_p50 - query_p50, "ns");
  r.detail("sim.loop_self_ns_per_event",
           ratio(static_cast<double>(tracer().aggregate(spans.run).self_ns),
                 traced_events),
           "ns");
  r.detail("fwd_pps.untraced", untraced_rate, "1/s");
  r.detail("fwd_pps.traced", traced_rate, "1/s");
  tracer().write_spans(opts.out_dir + "/home-steady.spans.tsv");
  p.trace_span_cost_ns = tracer().measure_span_cost_ns();
  report_per_layer(r, p);

  check_outputs(h, r,
                count_window.refreshes + plain.refreshes + plain.probe_refreshes +
                    traced.refreshes + traced.probe_refreshes,
                count_window.refresh_misses + plain.refresh_misses +
                    traced.refresh_misses);
  return r;
}

}  // namespace perfbench
