// Control-plane performance and the design-choice ablations from DESIGN.md:
// DHCP transaction rate, DNS interception overhead (cache on/off), the
// router-mediated isolation cost vs plain L2 switching, policy evaluation,
// and control-API request throughput.
#include <benchmark/benchmark.h>

#include "homework/router.hpp"
#include "net/packet.hpp"
#include "openflow/channel.hpp"
#include "telemetry/metrics.hpp"

using namespace hw;
using namespace hw::homework;

namespace {

struct Rig {
  Rig(DeviceRegistry::AdmissionDefault admission =
          DeviceRegistry::AdmissionDefault::PermitAll)
      : rng(1) {
    HomeworkRouter::Config config;
    config.admission = admission;
    router = std::make_unique<HomeworkRouter>(loop, rng, config);
    router->upstream().add_zone_entry("www.example.com",
                                      Ipv4Address{93, 184, 216, 34});
    router->start();
  }

  sim::Host& device(std::uint32_t index) {
    while (hosts.size() <= index) {
      sim::Host::Config hc;
      hc.name = "d" + std::to_string(hosts.size());
      hc.mac = MacAddress::from_index(static_cast<std::uint32_t>(hosts.size()) + 1);
      hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
      router->attach_device(*hosts.back(), std::nullopt);
    }
    return *hosts[index];
  }

  sim::EventLoop loop;
  Rng rng;
  std::unique_ptr<HomeworkRouter> router;
  std::vector<std::unique_ptr<sim::Host>> hosts;
};

/// Reports packet-in dispatch percentiles from the controller's registry
/// histogram — the same instrument MetricsExport publishes into hwdb.
void report_dispatch_latency(benchmark::State& state, Rig& rig) {
  const telemetry::Histogram& h =
      rig.router->controller().stats().packet_in_dispatch_ns;
  state.counters["dispatch_p50_ns"] = h.percentile(0.50);
  state.counters["dispatch_p99_ns"] = h.percentile(0.99);
}

void BM_DhcpFullTransaction(benchmark::State& state) {
  // DISCOVER→OFFER→REQUEST→ACK through the packet-in path, per device join.
  Rig rig;
  sim::Host& host = rig.device(0);
  for (auto _ : state) {
    host.start_dhcp();
    while (!host.ip()) rig.loop.run_for(100 * kMillisecond);
    state.PauseTiming();
    host.release_dhcp();
    rig.loop.run_for(kSecond);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
  report_dispatch_latency(state, rig);
}
BENCHMARK(BM_DhcpFullTransaction);

void BM_DnsProxyResolution(benchmark::State& state) {
  // Full interception round trip: device → proxy → upstream → proxy → device.
  Rig rig;
  sim::Host& host = rig.device(0);
  host.start_dhcp();
  while (!host.ip()) rig.loop.run_for(100 * kMillisecond);
  for (auto _ : state) {
    bool done = false;
    host.resolve("www.example.com",
                 [&](Result<Ipv4Address>, const std::string&) { done = true; });
    while (!done) rig.loop.run_for(10 * kMillisecond);
  }
  state.SetItemsProcessed(state.iterations());
  report_dispatch_latency(state, rig);
}
BENCHMARK(BM_DnsProxyResolution);

void BM_PolicyRestrictionEval(benchmark::State& state) {
  // The per-query policy check with N installed policies.
  policy::PolicyEngine engine([] { return Timestamp{17 * kHour}; });
  const int policies = static_cast<int>(state.range(0));
  for (int i = 0; i < policies; ++i) {
    policy::PolicyDocument p;
    p.id = "p" + std::to_string(i);
    p.who.tags = {"tag" + std::to_string(i % 4)};
    p.sites.kind = policy::SiteRuleKind::Block;
    p.sites.domains = {"*.site" + std::to_string(i) + ".com"};
    p.when.days = {1, 2, 3, 4, 5};
    engine.install(std::move(p));
  }
  const nox::DatapathId dpid = 1;
  const MacAddress mac = MacAddress::parse("aa:bb:cc:dd:ee:ff").value();
  engine.set_tags(dpid, mac, {"tag1", "tag3"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.domain_allowed(dpid, mac, "www.example.com"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PolicyRestrictionEval)->Arg(1)->Arg(8)->Arg(64);

void BM_ControlApiStatus(benchmark::State& state) {
  Rig rig;
  HttpRequest req;
  req.method = "GET";
  req.path = "/api/status";
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.router->control_api().handle(req));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlApiStatus);

void BM_ControlApiInterrogate(benchmark::State& state) {
  // The Figure 3 "interrogate" gesture: three hwdb queries + cache walk.
  Rig rig;
  sim::Host& host = rig.device(0);
  host.start_dhcp();
  while (!host.ip()) rig.loop.run_for(100 * kMillisecond);
  bool resolved = false;
  host.resolve("www.example.com",
               [&](Result<Ipv4Address>, const std::string&) { resolved = true; });
  while (!resolved) rig.loop.run_for(10 * kMillisecond);
  for (int i = 0; i < 50; ++i) {
    host.send_udp(Ipv4Address{93, 184, 216, 34}, 5000, 80, 400);
    rig.loop.run_for(20 * kMillisecond);
  }
  rig.loop.run_for(2 * kSecond);

  HttpRequest req;
  req.method = "GET";
  req.path = "/api/devices/" + host.mac().to_string() + "/interrogate";
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.router->control_api().handle(req));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlApiInterrogate);

void BM_ControlApiPermit(benchmark::State& state) {
  Rig rig(DeviceRegistry::AdmissionDefault::Pending);
  HttpRequest permit;
  permit.method = "POST";
  HttpRequest deny = permit;
  permit.path = "/api/devices/aa:bb:cc:dd:ee:01/permit";
  deny.path = "/api/devices/aa:bb:cc:dd:ee:01/deny";
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.router->control_api().handle(flip ? permit : deny));
    flip = !flip;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlApiPermit);

// ---------------------------------------------------------------------------
// Ablation: router-mediated isolation vs plain NORMAL L2 switching.
// Mediation buys per-flow visibility and control at the cost of MAC
// rewrites and one rule per direction; NORMAL forwards after learning.

void BM_AblationMediatedForwarding(benchmark::State& state) {
  Rig rig;
  sim::Host& a = rig.device(0);
  sim::Host& b = rig.device(1);
  a.start_dhcp();
  b.start_dhcp();
  while (!a.ip() || !b.ip()) rig.loop.run_for(100 * kMillisecond);
  // Prime the flow pair with one exchange.
  a.send_udp(*b.ip(), 1000, 2000, 256);
  rig.loop.run_for(kSecond);

  for (auto _ : state) {
    a.send_udp(*b.ip(), 1000, 2000, 256);
    rig.loop.run_for(5 * kMillisecond);
  }
  state.SetItemsProcessed(state.iterations());
  report_dispatch_latency(state, rig);
}
BENCHMARK(BM_AblationMediatedForwarding);

void BM_AblationNormalSwitching(benchmark::State& state) {
  // Bare datapath with a single NORMAL rule: the stock-switch baseline.
  sim::EventLoop loop;
  ofp::Datapath dp(loop, {});
  sim::CallbackSink sink([](const Bytes&) {});
  dp.add_port(1, "a", MacAddress::from_index(1), &sink);
  dp.add_port(2, "b", MacAddress::from_index(2), &sink);
  ofp::FlowMod mod;
  mod.match = ofp::Match::any();
  mod.actions = ofp::output_to(ofp::port_no(ofp::Port::Normal));
  dp.table().apply(mod, 0);

  // Teach the MAC table both stations.
  const Bytes a_to_b = net::build_udp(
      MacAddress::from_index(0xa), MacAddress::from_index(0xb),
      Ipv4Address{192, 168, 1, 2}, Ipv4Address{192, 168, 1, 3}, 1000, 2000,
      Bytes(256, 0));
  const Bytes b_to_a = net::build_udp(
      MacAddress::from_index(0xb), MacAddress::from_index(0xa),
      Ipv4Address{192, 168, 1, 3}, Ipv4Address{192, 168, 1, 2}, 2000, 1000,
      Bytes(256, 0));
  dp.receive_frame(1, a_to_b);
  dp.receive_frame(2, b_to_a);

  for (auto _ : state) {
    dp.receive_frame(1, a_to_b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AblationNormalSwitching);

// ---------------------------------------------------------------------------
// Ablation: DNS-derived flow admission with a warm vs cold name cache.

void BM_AblationFlowCheckWarmCache(benchmark::State& state) {
  Rig rig;
  sim::Host& host = rig.device(0);
  host.start_dhcp();
  while (!host.ip()) rig.loop.run_for(100 * kMillisecond);
  // Restrict the device so check_flow consults the cache.
  policy::PolicyDocument p;
  p.id = "kids";
  p.who.macs = {host.mac().to_string()};
  p.sites.kind = policy::SiteRuleKind::AllowOnly;
  p.sites.domains = {"*.example.com"};
  rig.router->policy().install(std::move(p));
  bool done = false;
  host.resolve("www.example.com",
               [&](Result<Ipv4Address>, const std::string&) { done = true; });
  while (!done) rig.loop.run_for(10 * kMillisecond);

  const Ipv4Address target{93, 184, 216, 34};
  const nox::DatapathId dpid = rig.router->datapath().id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rig.router->dns().check_flow(dpid, host.mac(), target));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AblationFlowCheckWarmCache);

void BM_AblationFlowCheckColdReverseLookup(benchmark::State& state) {
  // Unknown address: each admission requires a PTR round trip upstream.
  Rig rig;
  sim::Host& host = rig.device(0);
  host.start_dhcp();
  while (!host.ip()) rig.loop.run_for(100 * kMillisecond);
  policy::PolicyDocument p;
  p.id = "kids";
  p.who.macs = {host.mac().to_string()};
  p.sites.kind = policy::SiteRuleKind::AllowOnly;
  p.sites.domains = {"*.example.com"};
  rig.router->policy().install(std::move(p));
  const auto dpid = rig.router->controller().datapaths()[0];

  for (auto _ : state) {
    state.PauseTiming();
    rig.router->dns().flush_cache();  // force the cold path every iteration
    state.ResumeTiming();
    bool done = false;
    rig.router->dns().reverse_lookup(dpid, host.mac(),
                                     Ipv4Address{93, 184, 216, 34},
                                     [&](DnsProxy::FlowVerdict) { done = true; });
    while (!done) rig.loop.run_for(10 * kMillisecond);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AblationFlowCheckColdReverseLookup);

}  // namespace

BENCHMARK_MAIN();
