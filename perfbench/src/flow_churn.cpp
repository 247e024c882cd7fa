// flow-churn: one nox::Controller carrying the homework DHCP, DNS and
// Forwarding components serves kDatapaths ofp::Datapaths over framed
// StreamConnection channels, two devices per datapath. Every round, one
// device in every datapath opens a brand-new UDP flow at the same virtual
// instant; idle expiry keeps the table size steady. Every measured packet
// misses the microflow cache and the table, so the work is the packet-in
// encode, stream framing, serial controller dispatch, the forwarding
// decision, the FlowMod + PacketOut and the table insert.
#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "homework/device_registry.hpp"
#include "homework/dhcp_server.hpp"
#include "homework/dns_proxy.hpp"
#include "homework/forwarding.hpp"
#include "net/packet.hpp"
#include "nox/controller.hpp"
#include "openflow/datapath.hpp"
#include "openflow/messages.hpp"
#include "openflow/stream_channel.hpp"
#include "policy/engine.hpp"
#include "shims.hpp"
#include "sim/host.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace hw;

constexpr std::size_t kDatapaths = 32;
constexpr Duration kRoundEvery = 100 * kMillisecond;
/// A set-up that has not landed this long after its send counts as failed.
constexpr Duration kRoundBudget = 90 * kMillisecond;
/// Five virtual seconds: a whole number of the datapaths' 1 s expiry sweeps,
/// so every batch carries the same share of expiry work.
constexpr int kRoundsPerBatch = 50;
/// Well past the forwarding rules' 10 s idle timeout, so expiry already
/// balances installs and the table is at its steady size when measuring
/// starts; long enough (about half a wall-second) that a set-up's time
/// averages over the second-scale swings of a shared machine.
constexpr int kWarmupRounds = 1200;

std::uint8_t message_type(const Bytes& encoded) {
  return encoded.size() > 1 ? encoded[1] : 0xff;
}

struct Churn;
struct Dp;

/// A ChannelEndpoint wrapping one end of a StreamConnection. At the
/// controller end it opens nox.dispatch around every packet-in dispatch and
/// records how long the packet-in waited since the datapath sent it; at the
/// datapath end it opens openflow.flow_mod around every FlowMod the
/// datapath applies.
class ChannelShim final : public ofp::ChannelEndpoint {
 public:
  enum class End { Datapath, Controller };

  ChannelShim(ofp::ChannelEndpoint& inner, End end, Dp& dp, Churn& churn);
  void send(const Bytes& encoded) override;

 private:
  void received(const Bytes& encoded);

  ofp::ChannelEndpoint& inner_;
  End end_;
  Dp& dp_;
  Churn& churn_;
};

struct Dp {
  std::uint64_t dpid = 0;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<ofp::Datapath> datapath;
  std::unique_ptr<ofp::StreamConnection> conn;
  std::unique_ptr<ChannelShim> dp_shim;
  std::unique_ptr<ChannelShim> ctl_shim;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<std::unique_ptr<sim::DuplexLink>> links;
  std::vector<std::unique_ptr<LinkShim>> link_shims;
  std::size_t sender = 0;  // index into hosts
  std::int64_t sent_at = 0;
  bool pending = false;
  /// Wall times of packet-ins sent and not yet dispatched (traced run).
  std::deque<std::int64_t> packet_ins_in_flight;
};

struct Churn {
  // Declaration order is teardown order in reverse: datapaths go first, the
  // loop and the registries last.
  telemetry::MetricRegistry registry;
  /// The shims' own ChannelEndpoint instruments land here, so the traced
  /// run's registry series match the untraced run's.
  telemetry::MetricRegistry shim_registry;
  sim::EventLoop loop;
  homework::DeviceRegistry devices{
      homework::DeviceRegistry::AdmissionDefault::PermitAll};
  std::unique_ptr<policy::PolicyEngine> policy;
  std::unique_ptr<nox::Controller> controller;
  std::deque<Dp> dps;
  std::vector<Bytes> captured;
  std::vector<double> wait_us;
  /// The window whose batch is running; set-up latencies land in it.
  Batches* recording = nullptr;
  Timestamp next_round = 0;
  std::uint64_t round = 0;
  std::uint16_t dport_base = 0;
  int dispatch_span = tracer().intern("nox.dispatch");
  int ctl_other_span = tracer().intern("nox.other_msg");
  int flow_mod_span = tracer().intern("openflow.flow_mod");
  int dp_other_span = tracer().intern("openflow.other_msg");
  int run_span = tracer().intern("sim.run_until");
  std::string error;
};

ChannelShim::ChannelShim(ofp::ChannelEndpoint& inner, End end, Dp& dp,
                         Churn& churn)
    : inner_(inner), end_(end), dp_(dp), churn_(churn) {
  inner_.on_receive([this](const Bytes& encoded) { received(encoded); });
}

void ChannelShim::send(const Bytes& encoded) {
  if (end_ == End::Datapath && tracer().enabled() &&
      message_type(encoded) == static_cast<std::uint8_t>(ofp::MsgType::PacketIn)) {
    UncountedScope uncounted;
    dp_.packet_ins_in_flight.push_back(now_ns());
  }
  inner_.send(encoded);
}

void ChannelShim::received(const Bytes& encoded) {
  const std::uint8_t type = message_type(encoded);
  if (end_ == End::Controller) {
    if (type == static_cast<std::uint8_t>(ofp::MsgType::PacketIn)) {
      if (tracer().enabled() && !dp_.packet_ins_in_flight.empty()) {
        UncountedScope uncounted;
        churn_.wait_us.push_back(
            static_cast<double>(now_ns() - dp_.packet_ins_in_flight.front()) / 1e3);
        dp_.packet_ins_in_flight.pop_front();
      }
      Span s(churn_.dispatch_span);
      dispatch(encoded);
    } else {
      Span s(churn_.ctl_other_span);
      dispatch(encoded);
    }
    return;
  }
  if (type == static_cast<std::uint8_t>(ofp::MsgType::FlowMod)) {
    Span s(churn_.flow_mod_span);
    dispatch(encoded);
  } else {
    Span s(churn_.dp_other_span);
    dispatch(encoded);
  }
}

std::unique_ptr<Churn> build_churn(std::uint64_t seed, bool traced) {
  auto c = std::make_unique<Churn>();
  telemetry::ScopedMetricRegistry scoped(c->registry);
  Churn* cp = c.get();
  c->policy = std::make_unique<policy::PolicyEngine>([cp] { return cp->loop.now(); });
  c->controller = std::make_unique<nox::Controller>(c->loop, c->registry);
  homework::DhcpServer::Config dhcp;
  dhcp.lease_secs = 86400;  // no renewals inside any run
  c->controller->add_component(
      std::make_unique<homework::DhcpServer>(dhcp, c->devices));
  c->controller->add_component(std::make_unique<homework::DnsProxy>(
      homework::DnsProxy::Config{}, c->devices, *c->policy));
  c->controller->add_component(std::make_unique<homework::Forwarding>(
      homework::Forwarding::Config{}, c->devices, *c->policy));
  c->controller->start();

  std::uint64_t mix = seed;
  c->dport_base = static_cast<std::uint16_t>(10000 + splitmix64(mix) % 5000);
  for (std::size_t d = 0; d < kDatapaths; ++d) {
    c->dps.emplace_back();
    Dp& dp = c->dps.back();
    dp.dpid = d + 1;
    std::uint64_t dp_mix = seed ^ (d + 1);
    dp.rng = std::make_unique<Rng>(splitmix64(dp_mix));
    dp.sender = splitmix64(dp_mix) % 2;
    ofp::Datapath::Config dp_config;
    dp_config.datapath_id = dp.dpid;
    dp.datapath = std::make_unique<ofp::Datapath>(c->loop, dp_config, c->registry);
    dp.conn = std::make_unique<ofp::StreamConnection>(
        c->loop, ofp::StreamConnection::Config{}, dp.rng.get());
    for (std::size_t i = 0; i < 2; ++i) {
      sim::Host::Config host_config;
      host_config.name = "dev" + std::to_string(i);
      host_config.mac = MacAddress::from_index(1 + static_cast<std::uint32_t>(i));
      dp.hosts.push_back(std::make_unique<sim::Host>(c->loop, host_config, *dp.rng));
      dp.links.push_back(std::make_unique<sim::DuplexLink>(
          c->loop, sim::LinkChannel::Config{}, dp.rng.get()));
      const auto port = static_cast<std::uint16_t>(2 + i);
      sim::DuplexLink& link = *dp.links.back();
      dp.datapath->add_port(port, "port" + std::to_string(port),
                            MacAddress::from_index(0xfff000u + port), &link.b_to_a());
      link.b_to_a().connect(dp.hosts.back().get());
      sim::FrameSink* ingress = dp.datapath->ingress(port);
      if (traced) {
        dp.link_shims.push_back(std::make_unique<LinkShim>(ingress, &c->captured));
        ingress = dp.link_shims.back().get();
      }
      link.a_to_b().connect(ingress);
      dp.hosts.back()->attach_uplink(&link.a_to_b());
    }
    ofp::ChannelEndpoint* dp_end = &dp.conn->datapath_end();
    ofp::ChannelEndpoint* ctl_end = &dp.conn->controller_end();
    if (traced) {
      telemetry::ScopedMetricRegistry shim_scope(c->shim_registry);
      dp.dp_shim = std::make_unique<ChannelShim>(*dp_end, ChannelShim::End::Datapath,
                                                 dp, *c);
      dp.ctl_shim = std::make_unique<ChannelShim>(
          *ctl_end, ChannelShim::End::Controller, dp, *c);
      dp_end = dp.dp_shim.get();
      ctl_end = dp.ctl_shim.get();
    }
    dp.datapath->connect(*dp_end);
    c->controller->connect_datapath(*ctl_end);
    Dp* slot = &dp;
    dp.datapath->set_flow_mod_observer([slot, cp](const ofp::FlowMod& mod) {
      if (!slot->pending || mod.command != ofp::FlowModCommand::Add) return;
      slot->pending = false;
      if (cp->recording != nullptr) {
        cp->recording->sample(static_cast<double>(now_ns() - slot->sent_at) / 1e3);
      }
    });
  }

  // Bind every device (staggered inside each datapath, same schedule
  // across datapaths), then let the handshake and leases settle.
  for (Dp& dp : c->dps) {
    for (std::size_t i = 0; i < dp.hosts.size(); ++i) {
      sim::Host* host = dp.hosts[i].get();
      c->loop.schedule_at(10 * kMillisecond +
                              static_cast<Duration>(i + 1) * 50 * kMillisecond,
                          [host] { host->start_dhcp(); });
    }
  }
  c->loop.run_until(kSecond);
  for (const Dp& dp : c->dps) {
    for (const auto& host : dp.hosts) {
      if (!host->ip()) c->error = "a device failed to bind during set-up";
    }
  }
  c->next_round = kSecond + kRoundEvery;
  return c;
}

struct Window {
  /// Rates are set-ups per wall-second; latency samples are per set-up.
  Batches batches;
  std::uint64_t setups = 0;
  std::uint64_t probe_setups = 0;  // set-ups in unrecorded probe batches
  std::uint64_t lost = 0;
  double wall_ns = 0;
};

/// Every datapath's sender opens a new flow at the same virtual instant;
/// the round ends kRoundBudget later.
void run_round(Churn& c, Window& w) {
  const Timestamp at = c.next_round;
  c.next_round += kRoundEvery;
  const auto dport = static_cast<std::uint16_t>(c.dport_base + c.round % 50000);
  ++c.round;
  for (Dp& dp : c.dps) {
    Dp* slot = &dp;
    sim::Host* sender = dp.hosts[dp.sender].get();
    const Ipv4Address peer = dp.hosts[1 - dp.sender]->ip().value();
    c.loop.schedule_at(at, [slot, sender, peer, dport] {
      slot->pending = true;
      slot->sent_at = now_ns();
      (void)sender->send_udp(peer, 40000, dport, 64);
    });
  }
  {
    Span s(c.run_span);
    c.loop.run_until(at + kRoundBudget);
  }
  for (Dp& dp : c.dps) {
    if (dp.pending) {
      ++w.lost;
      dp.pending = false;
    } else {
      ++w.setups;
    }
  }
}

void run_batch(Churn& c, Window& w) {
  const std::uint64_t setups0 = w.setups;
  c.recording = &w.batches;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kRoundsPerBatch; ++i) run_round(c, w);
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  c.recording = nullptr;
  w.batches.close_batch(static_cast<double>(w.setups - setups0) / secs);
}

Window run_window(Churn& c, double seconds) {
  Window w;
  Window probe;  // reused: its reserved sample storage is allocated once
  const std::int64_t t0 = now_ns();
  run_placed(seconds, [&](bool record) {
    Window& into = record ? w : probe;
    run_batch(c, into);
    return into.batches.rates.back();
  });
  w.wall_ns = static_cast<double>(now_ns() - t0);
  w.probe_setups = probe.setups;
  w.lost += probe.lost;
  return w;
}

void account(Result& r, const Window& w) {
  r.attempted += w.setups + w.probe_setups + w.lost;
  r.failed += w.lost;
}

}  // namespace

Result run_flow_churn(const Options& opts) {
  Result r;
  // Set-up, repeated; every repetition must reach the same telemetry state.
  std::set<std::string> digests;
  std::unique_ptr<Churn> churn;
  std::string error;
  Window warm;  // reused, so its sample storage is not allocated per set-up
  const auto one = [&] {
    churn.reset();
    const std::int64_t t0 = now_ns();
    churn = build_churn(opts.seed, opts.trace);
    const std::uint64_t lost0 = warm.lost;
    for (int k = 0; k < kWarmupRounds && churn->error.empty(); ++k) run_round(*churn, warm);
    const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
    if (!churn->error.empty()) {
      error = churn->error;
    } else if (warm.lost != lost0) {
      error = "set-ups lost during warm-up";
    } else {
      digests.insert(digest(churn->registry.scalars()));
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
  Churn& c = *churn;

  if (!opts.trace) {
    const Window w = run_window(c, opts.seconds);
    account(r, w);
    r.check(w.lost == 0, std::to_string(w.lost) + " flow set-ups missed their round");
    const Summary sum = summarize(w.batches, Tail::PerBatch);
    EndToEnd e;
    e.work_rate = sum.rate;
    e.latency_p50_us = sum.p50_us;
    e.setup_s = median(setup_s);
    e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(r, e);
    r.detail("flow_setups_per_s", e.work_rate, "1/s");
    r.detail("flow_setup_p50_us", e.latency_p50_us, "us");
    r.detail("flow_setup_p99_us", sum.p99_us, "us");
    r.detail("flow_setups", static_cast<double>(w.setups), "count");
    r.detail("datapaths", static_cast<double>(kDatapaths), "count");
    r.detail("error_ratio", ratio(static_cast<double>(r.failed),
                                  static_cast<double>(r.attempted)), "ratio");
    return r;
  }

  // Traced run. 1) One fixed batch for the deterministic work counts.
  PerLayer p;
  const auto reg_before = c.registry.scalars();
  const std::uint64_t events0 = c.loop.executed();
  const AllocTotals allocs0 = thread_allocs();
  tracer().reset();
  tracer().set_enabled(true);
  Window count_window;
  run_batch(c, count_window);
  tracer().set_enabled(false);
  const AllocTotals allocs = thread_allocs() - allocs0;
  account(r, count_window);
  const auto reg_after = c.registry.scalars();
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
  const double ops = static_cast<double>(count_window.setups);
  const double events = static_cast<double>(c.loop.executed() - events0);
  const Tracer::Aggregate& ingress = tracer().aggregate(tracer().intern("openflow.ingress"));
  p.alloc_per_op = ratio(static_cast<double>(allocs.count), ops);
  p.alloc_bytes_per_op = ratio(static_cast<double>(allocs.bytes), ops);
  p.sim_events_per_op = ratio(events, ops);
  p.sim_allocs_per_event = ratio(
      static_cast<double>(tracer().aggregate(c.run_span).allocs.count), events);
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
  p.nox_allocs_per_op = ratio(
      static_cast<double>(tracer().aggregate(c.dispatch_span).allocs.count), ops);
  p.homework_flows_installed_per_op =
      ratio(delta("homework.forwarding.flows_installed"), ops);
  p.homework_dhcp_acks_per_home = lifetime("homework.dhcp.acks") / kDatapaths;
  p.homework_dns_forwarded_per_home = lifetime("homework.dns.forwarded") / kDatapaths;
  p.hwdb_inserts_per_op = ratio(delta("hwdb.database.inserts"), ops);
  p.telemetry_series_per_home =
      static_cast<double>(reg_after.size() + c.registry.histogram_states().size()) /
      kDatapaths;
  {
    const AllocTotals a0 = thread_allocs();
    for (const Bytes& frame : c.captured) (void)net::ParsedPacket::parse(frame);
    p.net_parse_allocs_per_frame =
        ratio(static_cast<double>((thread_allocs() - a0).count),
              static_cast<double>(c.captured.size()));
  }

  // 2) Untraced then traced windows of equal length.
  const Window plain = run_window(c, opts.seconds / 2);
  account(r, plain);
  tracer().reset();
  c.wait_us.clear();
  for (Dp& dp : c.dps) dp.packet_ins_in_flight.clear();
  tracer().set_enabled(true);
  const std::uint64_t traced_events0 = c.loop.executed();
  const Window traced = run_window(c, opts.seconds / 2);
  const double traced_events = static_cast<double>(c.loop.executed() - traced_events0);
  tracer().set_enabled(false);
  account(r, traced);
  const double untraced_rate = summarize(plain.batches, Tail::PerBatch).rate;
  const double traced_rate = summarize(traced.batches, Tail::PerBatch).rate;
  p.trace_overhead_pct = 100.0 * ratio(untraced_rate - traced_rate, untraced_rate);
  p.sim_self_pct = layer_self_pct("sim", traced.wall_ns);
  p.openflow_self_pct = layer_self_pct("openflow", traced.wall_ns);
  p.nox_self_pct = layer_self_pct("nox", traced.wall_ns);
  add_span_details(r);
  r.detail("nox.wait_us.p50", percentile(c.wait_us, 0.50), "us");
  r.detail("nox.wait_us.p99", percentile(c.wait_us, 0.99), "us");
  r.detail("flow_setups_per_s.untraced", untraced_rate, "1/s");
  r.detail("flow_setups_per_s.traced", traced_rate, "1/s");
  r.detail("sim.loop_self_ns_per_event",
           ratio(static_cast<double>(tracer().aggregate(c.run_span).self_ns),
                 traced_events),
           "ns");
  const std::uint64_t lost = count_window.lost + plain.lost + traced.lost;
  r.check(lost == 0, std::to_string(lost) + " flow set-ups missed their round");
  tracer().write_spans(opts.out_dir + "/flow-churn.spans.tsv");
  p.trace_span_cost_ns = tracer().measure_span_cost_ns();
  report_per_layer(r, p);
  return r;
}

}  // namespace perfbench
