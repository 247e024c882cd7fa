// EventExport NOX module: populates the hwdb measurement plane. "Tables used
// are Flows, periodically observed active five-tuples; Links, link-layer
// information, e.g., MAC address and received signal strength (RSSI); and
// Leases, mapping Ethernet to IP address." (paper §2)
//
//   Flows(device, src_ip, dst_ip, proto, sport, dport, app, bytes, packets)
//     — per poll interval, the byte/packet *delta* of each active flow rule
//   Links(mac, rssi, retries, tx)
//     — per poll interval, a fresh RSSI sample and retry/tx deltas
//   Leases(mac, ip, hostname, event, state)
//     — one row per registry event (grant/renew/release/expire/decisions)
#pragma once

#include <map>
#include <memory>

#include "homework/device_registry.hpp"
#include "homework/wireless_map.hpp"
#include "hwdb/database.hpp"
#include "nox/component.hpp"
#include "nox/controller.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class EventExport final : public nox::Component {
 public:
  struct Config {
    Duration flow_poll = kSecond;
    Duration link_poll = kSecond;
    std::size_t flows_capacity = 32768;
    std::size_t links_capacity = 8192;
    std::size_t leases_capacity = 2048;
  };

  static constexpr const char* kName = "event-export";

  /// `wireless` may be null (wired-only deployments skip the Links table).
  EventExport(Config config, hwdb::Database& db, DeviceRegistry& registry,
              WirelessMap* wireless);
  ~EventExport() override;

  void install(nox::Controller& ctl) override;
  void handle_datapath_join(nox::DatapathId dpid,
                            const ofp::FeaturesReply& features) override;
  void handle_flow_removed(nox::DatapathId dpid,
                           const ofp::FlowRemoved& fr) override;

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter flow_rows{"homework.event_export.flow_rows"};
    telemetry::Counter link_rows{"homework.event_export.link_rows"};
    telemetry::Counter lease_rows{"homework.event_export.lease_rows"};
    telemetry::Counter stats_polls{"homework.event_export.stats_polls"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  /// One flow-stats poll cycle (normally timer-driven).
  void poll_flows();
  /// One link sample cycle (normally timer-driven).
  void poll_links();

  /// Creates the three standard tables on `db` (shared with tests).
  static Status create_tables(hwdb::Database& db, const Config& config);

 private:
  void export_flow_stats(const std::vector<ofp::FlowStatsEntry>& entries);
  void on_registry_event(RegistryEvent ev, const DeviceRecord& rec);

  Config config_;
  hwdb::Database& db_;
  DeviceRegistry& registry_;
  WirelessMap* wireless_;
  Instruments metrics_;
  std::vector<nox::DatapathId> datapaths_;

  /// Previous cumulative counters per flow (keyed by rendered match).
  struct PrevCounters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, PrevCounters> prev_;

  /// Previous cumulative retry/tx counters per station.
  struct PrevLink {
    std::uint64_t retries = 0;
    std::uint64_t tx = 0;
  };
  std::map<MacAddress, PrevLink> prev_link_;

  std::unique_ptr<sim::PeriodicTimer> flow_timer_;
  std::unique_ptr<sim::PeriodicTimer> link_timer_;
};

}  // namespace hw::homework
