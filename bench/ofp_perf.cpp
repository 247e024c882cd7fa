// OpenFlow path performance: flow-table lookup scaling (exact hit vs
// wildcard vs miss), flow-mod application rate, wire codec throughput, and
// the full datapath fast path vs the packet-in slow path — the crossover
// that justifies the architecture — plus the per-packet costs around it:
// frame parse and build, and one event-loop dispatch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "net/packet.hpp"
#include "openflow/stream_channel.hpp"
#include "openflow/datapath.hpp"
#include "sim/event_loop.hpp"
#include "telemetry/metrics.hpp"

using namespace hw;
using namespace hw::ofp;

namespace {

/// Reports lookup latency percentiles from the table's registry histogram —
/// the same instrument MetricsExport publishes into the hwdb Metrics table.
void report_lookup_latency(benchmark::State& state, const FlowTable& table) {
  const telemetry::Histogram& h = table.stats().lookup_ns;
  state.counters["lookup_p50_ns"] = h.percentile(0.50);
  state.counters["lookup_p99_ns"] = h.percentile(0.99);
}

Match exact_pkt(std::uint32_t i) {
  Match m;
  m.wildcards = 0;
  m.in_port = 1;
  m.dl_src = MacAddress::from_index(1);
  m.dl_dst = MacAddress::from_index(2);
  m.dl_vlan = 0xffff;
  m.dl_type = 0x0800;
  m.nw_proto = 6;
  m.nw_src = Ipv4Address{0x0a000000u + (i % 50000)};
  m.nw_dst = Ipv4Address{8, 8, 8, 8};
  m.tp_src = static_cast<std::uint16_t>(i & 0xffff);
  m.tp_dst = 80;
  return m;
}

void fill_table(FlowTable& table, int rules) {
  for (int i = 0; i < rules; ++i) {
    FlowMod mod;
    mod.match = exact_pkt(static_cast<std::uint32_t>(i));
    mod.command = FlowModCommand::Add;
    mod.actions = output_to(2);
    table.apply(mod, 0);
  }
}

void BM_TableLookupHit(benchmark::State& state) {
  FlowTable table(100000);
  const int rules = static_cast<int>(state.range(0));
  fill_table(table, rules);
  std::uint32_t i = 0;
  for (auto _ : state) {
    // Rotate across installed rules: average positional cost.
    benchmark::DoNotOptimize(
        table.lookup(exact_pkt(i++ % static_cast<std::uint32_t>(rules)), 0, 64));
  }
  state.SetItemsProcessed(state.iterations());
  report_lookup_latency(state, table);
}
BENCHMARK(BM_TableLookupHit)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TableLookupMiss(benchmark::State& state) {
  FlowTable table(100000);
  fill_table(table, static_cast<int>(state.range(0)));
  Match miss = exact_pkt(1);
  miss.tp_dst = 9999;  // matches nothing
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(miss, 0, 64));
  }
  state.SetItemsProcessed(state.iterations());
  report_lookup_latency(state, table);
}
BENCHMARK(BM_TableLookupMiss)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TableWildcardHit(benchmark::State& state) {
  // A handful of service rules (the Homework pattern) over a busy packet mix.
  FlowTable table;
  auto add = [&](Match m, std::uint16_t priority) {
    FlowMod mod;
    mod.match = m;
    mod.priority = priority;
    mod.actions = send_to_controller();
    table.apply(mod, 0);
  };
  Match dhcp = Match::any();
  dhcp.with_dl_type(0x0800).with_nw_proto(17).with_tp_dst(67);
  add(dhcp, 0xffff);
  Match dns = Match::any();
  dns.with_dl_type(0x0800).with_nw_proto(17).with_tp_dst(53);
  add(dns, 0xfffe);
  Match arp = Match::any();
  arp.with_dl_type(0x0806);
  add(arp, 0xfffd);

  Match dns_pkt = exact_pkt(3);
  dns_pkt.nw_proto = 17;
  dns_pkt.tp_dst = 53;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(dns_pkt, 0, 64));
  }
  state.SetItemsProcessed(state.iterations());
  report_lookup_latency(state, table);
}
BENCHMARK(BM_TableWildcardHit);

void BM_FlowModApply(benchmark::State& state) {
  FlowTable table(1 << 20);
  std::uint32_t i = 0;
  for (auto _ : state) {
    FlowMod mod;
    mod.match = exact_pkt(i++);
    mod.command = FlowModCommand::Add;
    mod.idle_timeout = 10;
    mod.actions = output_to(2);
    // As the datapath installs a decoded FlowMod: its actions move in.
    benchmark::DoNotOptimize(table.apply(std::move(mod), 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowModApply);

void BM_CodecEncodeFlowMod(benchmark::State& state) {
  FlowMod mod;
  mod.match = exact_pkt(42);
  mod.actions = {ActionSetDlSrc{MacAddress::from_index(7)},
                 ActionSetDlDst{MacAddress::from_index(8)},
                 ActionOutput{2, 0}};
  // As the controller sends: read in place, into one reused buffer.
  Bytes wire;
  for (auto _ : state) {
    encode_into(wire, 1, mod);
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecEncodeFlowMod);

void BM_CodecDecodePacketIn(benchmark::State& state) {
  const Bytes frame(128, 0xab);
  PacketIn pi;
  pi.buffer_id = 7;
  pi.in_port = 3;
  pi.data = frame;
  const Bytes wire = encode({9, pi});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode(wire));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecDecodePacketIn);

void BM_DatapathFastPath(benchmark::State& state) {
  // A frame matching an installed exact flow: the per-packet cost of the
  // architecture's common case.
  sim::EventLoop loop;
  Datapath dp(loop, {});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);

  const Bytes frame = net::build_udp(
      MacAddress::from_index(1), MacAddress::from_index(2),
      Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8}, 1234, 80,
      Bytes(512, 0));
  auto parsed = net::ParsedPacket::parse(frame);
  FlowMod mod;
  mod.match = Match::from_packet(parsed.value(), 1);
  mod.actions = {ActionSetDlSrc{MacAddress::from_index(9)},
                 ActionSetDlDst{MacAddress::from_index(10)},
                 ActionOutput{2, 0}};
  FlowTable& table = dp.table();
  table.apply(mod, 0);

  for (auto _ : state) {
    dp.receive_frame(1, frame);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
  report_lookup_latency(state, table);
}
BENCHMARK(BM_DatapathFastPath);

void BM_DatapathFastPathNoRewrite(benchmark::State& state) {
  // Output-only rule: isolates the lookup+forward cost from the MAC/IP
  // rewrite (which copies the frame once and patches the copy in place).
  sim::EventLoop loop;
  Datapath dp(loop, {});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);
  const Bytes frame = net::build_udp(
      MacAddress::from_index(1), MacAddress::from_index(2),
      Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8}, 1234, 80,
      Bytes(512, 0));
  auto parsed = net::ParsedPacket::parse(frame);
  FlowMod mod;
  mod.match = Match::from_packet(parsed.value(), 1);
  mod.actions = output_to(2);
  dp.table().apply(mod, 0);
  for (auto _ : state) {
    dp.receive_frame(1, frame);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatapathFastPathNoRewrite);

void BM_DatapathFastPathEnqueue(benchmark::State& state) {
  // Rate-limited egress: output replaced by a policing queue with a rate
  // high enough that nothing drops — isolates the bucket bookkeeping cost.
  sim::EventLoop loop;
  Datapath dp(loop, {});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);
  dp.configure_queue(2, 1, 1'000'000'000'000ull, 1'000'000'000ull);
  const Bytes frame = net::build_udp(
      MacAddress::from_index(1), MacAddress::from_index(2),
      Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8}, 1234, 80,
      Bytes(512, 0));
  auto parsed = net::ParsedPacket::parse(frame);
  FlowMod mod;
  mod.match = Match::from_packet(parsed.value(), 1);
  mod.actions = {ActionEnqueue{2, 1}};
  dp.table().apply(mod, 0);
  for (auto _ : state) {
    dp.receive_frame(1, frame);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatapathFastPathEnqueue);

/// Builds a UDP frame whose 12-tuple is unique per index (source port
/// varies), plus the matching exact-match FlowMod.
Bytes indexed_frame(std::uint32_t i) {
  return net::build_udp(MacAddress::from_index(1), MacAddress::from_index(2),
                        Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8},
                        static_cast<std::uint16_t>(1024 + (i % 50000)), 80,
                        Bytes(512, 0));
}

void install_exact_rule(Datapath& dp, const Bytes& frame) {
  FlowMod mod;
  mod.match = Match::from_packet(net::ParsedPacket::parse(frame).value(), 1);
  mod.actions = output_to(2);
  dp.table().apply(mod, 0);
}

void report_microflow(benchmark::State& state, const Datapath& dp) {
  const auto& s = dp.stats();
  const double total =
      static_cast<double>(s.microflow_hits.value() +
                          s.microflow_misses.value());
  state.counters["microflow_hit_ratio"] =
      total > 0 ? static_cast<double>(s.microflow_hits.value()) / total : 0.0;
  state.counters["microflow_invalidations"] =
      static_cast<double>(s.microflow_invalidations.value());
}

void BM_DatapathMicroflowHit(benchmark::State& state) {
  // Steady traffic on one flow over a table of range(0) exact rules: after
  // the first packet every lookup resolves in the exact-match cache, so the
  // per-packet cost should be flat in table size.
  sim::EventLoop loop;
  Datapath dp(loop, {.table_capacity = 100000});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);
  const int rules = static_cast<int>(state.range(0));
  for (int i = 0; i < rules; ++i) {
    install_exact_rule(dp, indexed_frame(static_cast<std::uint32_t>(i)));
  }
  const Bytes frame = indexed_frame(0);
  for (auto _ : state) {
    dp.receive_frame(1, frame);
  }
  state.SetItemsProcessed(state.iterations());
  report_microflow(state, dp);
  report_lookup_latency(state, dp.table());
}
BENCHMARK(BM_DatapathMicroflowHit)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DatapathMicroflowMiss(benchmark::State& state) {
  // The cache deliberately thrashed: a tiny microflow capacity with traffic
  // rotating over many more flows than it holds, so (almost) every packet
  // falls through to the tuple-space classifier. The gap against
  // BM_DatapathMicroflowHit is what the cache buys.
  sim::EventLoop loop;
  Datapath dp(loop, {.table_capacity = 100000, .microflow_capacity = 8});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);
  const int rules = static_cast<int>(state.range(0));
  std::vector<Bytes> frames;
  const int n_flows = std::min(rules, 64);
  for (int i = 0; i < rules; ++i) {
    const Bytes frame = indexed_frame(static_cast<std::uint32_t>(i));
    install_exact_rule(dp, frame);
    if (i < n_flows) frames.push_back(frame);
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    dp.receive_frame(1, frames[i++ % frames.size()]);
  }
  state.SetItemsProcessed(state.iterations());
  report_microflow(state, dp);
  report_lookup_latency(state, dp.table());
}
BENCHMARK(BM_DatapathMicroflowMiss)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DatapathMicroflowChurn(benchmark::State& state) {
  // Worst case for the generation scheme: a table mutation between every
  // packet, so each probe flushes the whole cache and re-runs the
  // classifier. Measures flow-mod + invalidation + cold lookup together.
  sim::EventLoop loop;
  Datapath dp(loop, {.table_capacity = 100000});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);
  const int rules = static_cast<int>(state.range(0));
  for (int i = 0; i < rules; ++i) {
    install_exact_rule(dp, indexed_frame(static_cast<std::uint32_t>(i)));
  }
  const Bytes frame = indexed_frame(0);
  FlowMod churn;
  churn.match = Match::from_packet(net::ParsedPacket::parse(frame).value(), 1);
  churn.actions = output_to(2);
  for (auto _ : state) {
    dp.table().apply(churn, 0);  // replace: bumps the table generation
    dp.receive_frame(1, frame);
  }
  state.SetItemsProcessed(state.iterations());
  report_microflow(state, dp);
  report_lookup_latency(state, dp.table());
}
BENCHMARK(BM_DatapathMicroflowChurn)->Arg(10)->Arg(1000);

void BM_DatapathSlowPathRoundTrip(benchmark::State& state) {
  // The full miss cost: packet-in encode → channel → controller decodes and
  // answers with a packet-out releasing the buffer → datapath forwards.
  // Compare against BM_DatapathFastPath*: this ratio is why flows exist.
  sim::EventLoop loop;
  Datapath dp(loop, {.datapath_id = 1, .n_buffers = 64});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "in", MacAddress::from_index(1), &sink);
  dp.add_port(2, "out", MacAddress::from_index(2), &sink);
  StreamConnection conn(loop);
  auto& ctl_end = conn.controller_end();
  Bytes wire;
  ctl_end.on_receive([&](const Bytes& encoded) {
    auto env = decode(encoded);
    if (!env.ok()) return;
    const auto* pi = std::get_if<PacketIn>(&env.value().msg);
    if (pi == nullptr) return;
    PacketOut po;
    po.buffer_id = pi->buffer_id;
    po.in_port = pi->in_port;
    po.actions = output_to(2);
    encode_into(wire, env.value().xid, po);
    ctl_end.send(wire);
  });
  dp.connect(conn.datapath_end());
  loop.run_for(kMillisecond);

  const Bytes frame = net::build_udp(
      MacAddress::from_index(1), MacAddress::from_index(2),
      Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8}, 1234, 80,
      Bytes(512, 0));
  for (auto _ : state) {
    dp.receive_frame(1, frame);
    loop.run_for(10);  // drain both channel directions
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DatapathSlowPathRoundTrip);

/// A whole frame of `frame_size` bytes: the headers plus a zero payload.
Bytes udp_frame_of(std::size_t frame_size) {
  return net::build_udp(MacAddress::from_index(1), MacAddress::from_index(2),
                        Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8},
                        40000, 5004, Bytes(frame_size - 42, 0));
}

Bytes tcp_frame_of(std::size_t frame_size) {
  return net::build_tcp(MacAddress::from_index(1), MacAddress::from_index(2),
                        Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8},
                        net::TcpHeader{40000, 443, 1, 1, net::TcpFlags::kAck, 65535},
                        Bytes(frame_size - 54, 0));
}

Bytes arp_frame() {
  return net::build_arp({net::ArpOp::Request, MacAddress::from_index(1),
                         Ipv4Address{192, 168, 1, 100}, MacAddress::zero(),
                         Ipv4Address{192, 168, 1, 1}});
}

/// One ParsedPacket::parse of a whole frame: the per-packet dissection cost
/// every fast-path packet (and the microflow hit) pays once.
void BM_ParsePacket(benchmark::State& state, const Bytes& frame) {
  for (auto _ : state) {
    auto parsed = net::ParsedPacket::parse(frame);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ParsePacket, udp_60B, udp_frame_of(60));
BENCHMARK_CAPTURE(BM_ParsePacket, udp_1514B, udp_frame_of(1514));
BENCHMARK_CAPTURE(BM_ParsePacket, tcp_60B, tcp_frame_of(60));
BENCHMARK_CAPTURE(BM_ParsePacket, tcp_1514B, tcp_frame_of(1514));
BENCHMARK_CAPTURE(BM_ParsePacket, arp_42B, arp_frame());

void BM_MatchFromPacket(benchmark::State& state) {
  const Bytes frame = net::build_tcp(
      MacAddress::from_index(1), MacAddress::from_index(2),
      Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8},
      net::TcpHeader{40000, 443, 1, 1, net::TcpFlags::kAck, 65535},
      Bytes(256, 0));
  for (auto _ : state) {
    auto parsed = net::ParsedPacket::parse(frame);
    benchmark::DoNotOptimize(Match::from_packet(parsed.value(), 3));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchFromPacket);

/// Builds one UDP frame of `frame_size` bytes the way a simulated host does
/// per packet: one reserved buffer, each header appended and filled in place.
void BM_BuildUdp(benchmark::State& state, std::size_t frame_size) {
  const Bytes payload(frame_size - 42, 0xab);
  const MacAddress src_mac = MacAddress::from_index(1);
  const MacAddress dst_mac = MacAddress::from_index(2);
  const Ipv4Address src{192, 168, 1, 100};
  const Ipv4Address dst{8, 8, 8, 8};
  for (auto _ : state) {
    Bytes frame = net::build_udp(src_mac, dst_mac, src, dst, 40000, 5004, payload);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_BuildUdp, 60B, 60);
BENCHMARK_CAPTURE(BM_BuildUdp, 1514B, 1514);

/// One event-loop dispatch at a steady pending depth of range(0) events:
/// each event re-arms itself at a scattered later time, so every dispatch is
/// one heap pop, one callback and one schedule. The callback fits
/// std::function's inline buffer, so this is the loop's own cost.
void BM_EventLoopScheduleRun(benchmark::State& state) {
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  sim::EventLoop loop;
  std::uint64_t fired = 0;
  struct Rearm {
    sim::EventLoop* loop;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      // A multiplicative hash spreads the delays over [1, 4096] µs.
      loop->schedule(1 + (*fired * 2654435761u) % 4096, *this);
    }
  };
  for (std::uint64_t i = 0; i < depth; ++i) loop.schedule(i, Rearm{&loop, &fired});
  for (auto _ : state) loop.run_until(loop.next_event_at());
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.counters["pending"] = static_cast<double>(loop.pending());
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(16)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
