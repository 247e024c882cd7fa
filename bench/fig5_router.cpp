// Figure 5 regeneration: the whole software architecture, end to end.
// Reports the per-stage traffic counts of a scripted evening (what entered
// each box of the architecture diagram) and the platform's throughput:
// datapath-forwarded packets vs controller round-trips, plus wall-clock
// packets/second through the full stack.
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>

#include "hwdb/udp_transport.hpp"
#include "residency/image_store.hpp"
#include "residency/residency.hpp"
#include "workload/scenario.hpp"

using namespace hw;

int main() {
  std::printf("=== Figure 5: Homework router software architecture ===\n\n");

  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  config.seed = 5;
  workload::HomeScenario home(config);
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  home.wait_all_bound();
  home.start_apps_all();

  const auto wall_start = std::chrono::steady_clock::now();
  home.run_for(120 * kSecond);  // two minutes of family evening
  const auto wall_end = std::chrono::steady_clock::now();
  home.stop_apps_all();

  auto& router = home.router();
  const auto& dp = router.datapath();
  const auto& ctl = router.controller();

  // Per-port data-plane counters.
  std::uint64_t rx_pkts = 0, tx_pkts = 0, rx_bytes = 0, tx_bytes = 0;
  for (std::uint16_t port = 1; port <= 16; ++port) {
    const auto* counters = dp.port_counters(port);
    if (counters == nullptr) continue;
    rx_pkts += counters->rx_packets;
    tx_pkts += counters->tx_packets;
    rx_bytes += counters->rx_bytes;
    tx_bytes += counters->tx_bytes;
  }

  std::printf("-- per-component activity (120 virtual seconds) --\n");
  std::printf("%-34s %14s\n", "openvswitch datapath rx packets",
              std::to_string(rx_pkts).c_str());
  std::printf("%-34s %14s\n", "openvswitch datapath tx packets",
              std::to_string(tx_pkts).c_str());
  std::printf("%-34s %14.1f\n", "datapath rx volume [MB]",
              static_cast<double>(rx_bytes) / 1e6);
  std::printf("%-34s %14llu\n", "table lookups",
              static_cast<unsigned long long>(
                  dp.table().stats().lookups.value()));
  std::printf("%-34s %14llu\n", "table matches",
              static_cast<unsigned long long>(
                  dp.table().stats().matches.value()));
  std::printf("%-34s %14llu\n", "microflow cache hits",
              static_cast<unsigned long long>(
                  dp.stats().microflow_hits.value()));
  std::printf("%-34s %14llu\n", "microflow cache misses",
              static_cast<unsigned long long>(
                  dp.stats().microflow_misses.value()));
  std::printf("%-34s %14llu\n", "microflow invalidations",
              static_cast<unsigned long long>(
                  dp.stats().microflow_invalidations.value()));
  std::printf("%-34s %14zu\n", "classifier subtables",
              dp.table().subtable_count());
  std::printf("%-34s %14llu\n", "packet-ins to NOX",
              static_cast<unsigned long long>(dp.stats().packet_ins.value()));
  std::printf("%-34s %14llu\n", "flow-mods from NOX",
              static_cast<unsigned long long>(dp.stats().flow_mods.value()));
  std::printf("%-34s %14llu\n", "packet-outs from NOX",
              static_cast<unsigned long long>(dp.stats().packet_outs.value()));
  std::printf("%-34s %14llu\n", "dhcp transactions (acks)",
              static_cast<unsigned long long>(
                  router.dhcp().stats().acks.value()));
  std::printf("%-34s %14llu\n", "dns queries proxied",
              static_cast<unsigned long long>(
                  router.dns().stats().forwarded.value()));
  std::printf("%-34s %14llu\n", "flows admitted",
              static_cast<unsigned long long>(
                  router.forwarding().stats().flows_installed.value()));
  std::printf("%-34s %14llu\n", "hwdb Flows rows",
              static_cast<unsigned long long>(
                  router.event_export().stats().flow_rows.value()));
  std::printf("%-34s %14llu\n", "hwdb Links rows",
              static_cast<unsigned long long>(
                  router.event_export().stats().link_rows.value()));
  std::printf("%-34s %14llu\n", "hwdb Leases rows",
              static_cast<unsigned long long>(
                  router.event_export().stats().lease_rows.value()));

  // The architectural payoff: flows set up once, then forwarded in the
  // datapath — controller involvement must be a small fraction.
  const double ctrl_fraction =
      rx_pkts == 0 ? 0
                   : static_cast<double>(dp.stats().packet_ins.value()) /
                         static_cast<double>(rx_pkts);
  std::printf("\n-- control/data plane split --\n");
  std::printf("controller sees %.2f%% of packets; %.2f%% forwarded by flows\n",
              ctrl_fraction * 100.0, (1.0 - ctrl_fraction) * 100.0);

  const double wall_secs =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::printf("\n-- simulator throughput --\n");
  std::printf("%.0f packets through the full stack in %.2f s wall "
              "(%.0f pkts/s wall, %.0fx real time)\n",
              static_cast<double>(rx_pkts), wall_secs,
              static_cast<double>(rx_pkts) / wall_secs, 120.0 / wall_secs);

  std::printf("\nshape checks: controller fraction well under 10%%; hwdb rows "
              "grow with traffic;\n  every module in the diagram shows activity.\n");
  std::printf("\ncontroller stats: %llu pktin / %llu flowmod / %llu pktout / "
              "%llu errors\n",
              static_cast<unsigned long long>(ctl.stats().packet_ins.value()),
              static_cast<unsigned long long>(ctl.stats().flow_mods.value()),
              static_cast<unsigned long long>(ctl.stats().packet_outs.value()),
              static_cast<unsigned long long>(ctl.stats().errors.value()));

  // The telemetry registry as a client sees it: MetricsExport has been
  // writing every series that moved all along; read each series' latest
  // value back over the hwdb RPC interface, exactly like an external UI
  // would.
  std::printf("\n-- telemetry via hwdb RPC: "
              "SELECT name, last(value) FROM Metrics [SINCE 0] "
              "GROUP BY name --\n");
  hwdb::rpc::InProcRpcLink rpc_link(router.loop(), router.db());
  hwdb::rpc::RpcClient& rpc_client = rpc_link.make_client();
  // Residency accounting surfaces (docs/residency.md): deposit this home's
  // snapshot image in a content-addressed store and run it through one
  // hibernate/resume cycle, so the fleet.resident_homes / fleet.image_bytes
  // gauges are live in the same registry the Metrics export polls.
  residency::ImageStore image_store;
  residency::ResidencyPolicy residency_policy;
  residency_policy.max_resident = 1;
  residency::ResidencyManager residency(residency_policy);
  residency.reset(1, router.loop().now());
  (void)image_store.put(0, router.snapshots().capture());
  residency.on_hibernated(0, router.loop().now(),
                          residency::ResidencyManager::kNever);
  residency.on_resumed(0, router.loop().now(), 0);
  // The RPC stack's own instruments (hwdb.rpc.*) attach when the link is
  // created; let one export period elapse so they appear in the snapshot.
  home.run_for(2 * kSecond);
  std::optional<hwdb::ResultSet> metrics;
  rpc_client.query("SELECT name, last(value) FROM Metrics [SINCE 0] "
                   "GROUP BY name",
                   [&](Result<hwdb::ResultSet> rs) {
                     if (rs.ok()) metrics = std::move(rs.value());
                   });
  home.run_for(10 * kMillisecond);
  if (!metrics.has_value()) {
    std::printf("RPC query failed\n");
    return 1;
  }

  std::map<std::string, std::size_t> per_layer;
  std::map<std::string, double> by_name;
  for (const auto& row : metrics->rows) {
    const std::string& name = row[0].as_text();
    ++per_layer[name.substr(0, name.find('.'))];
    by_name[name] = row[1].as_real();
  }
  std::printf("%zu series in the Metrics table; per layer:",
              metrics->rows.size());
  for (const auto& [layer, n] : per_layer) {
    std::printf(" %s=%zu", layer.c_str(), n);
  }
  std::printf("\n");
  for (const char* name :
       {"openflow.flow_table.lookups", "openflow.flow_table.subtables",
        "openflow.flow_table.subtable_scans",
        "openflow.datapath.microflow_hits",
        "openflow.datapath.microflow_misses",
        "openflow.datapath.microflow_invalidations",
        "openflow.datapath.packet_ins",
        "nox.controller.packet_ins", "homework.dhcp.acks",
        "homework.dhcp.retransmits", "homework.dns.forwarded",
        "hwdb.database.inserts",
        // Recovery telemetry (the chaos suite's series): all zero in this
        // healthy run, but readable over the same RPC path.
        "nox.channel.reconnects", "nox.channel.resynced_flows",
        "hwdb.rpc.retries", "hwdb.rpc.timeouts", "hwdb.rpc.dup_suppressed",
        // Residency-plane accounting (docs/residency.md), read over the same
        // RPC path an external dashboard would use.
        "fleet.resident_homes", "fleet.image_bytes",
        "residency.image_bytes_deduped", "residency.resumes",
        "sim.host.tx_frames", "openflow.flow_table.lookup_ns.p50",
        "openflow.flow_table.lookup_ns.p99",
        "nox.controller.packet_in_dispatch_ns.p50",
        "nox.controller.packet_in_dispatch_ns.p99",
        "hwdb.database.insert_ns.p50", "hwdb.database.insert_ns.p99"}) {
    const auto it = by_name.find(name);
    std::printf("%-44s %14.0f\n", name, it == by_name.end() ? -1.0 : it->second);
  }
  return 0;
}
