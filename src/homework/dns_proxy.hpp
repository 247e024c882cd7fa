// The Homework DNS proxy NOX module. "The second intercepts outgoing DNS
// requests, performing reverse lookups on flows not matching previously
// requested names, to ensure that upstream communication is only allowed
// between permitted devices and sites." (paper §2)
//
// Mechanics: leases point clients at the router for DNS; a controller rule
// brings all port-53 traffic here. Queries are policy-checked per device
// (Figure 4 restrictions); refused names get NXDOMAIN, allowed ones are
// relayed upstream and the answers recorded in a per-device name cache. The
// forwarding module consults that cache before admitting a flow; for an IP
// with no matching name it asks us to reverse-look it up (PTR) and decides
// on the result.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "homework/device_registry.hpp"
#include "net/dns.hpp"
#include "nox/component.hpp"
#include "nox/controller.hpp"
#include "policy/engine.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class DnsProxy final : public nox::Component {
 public:
  struct Config {
    Ipv4Address router_ip{192, 168, 1, 1};
    MacAddress router_mac = MacAddress::from_index(0xffffff);
    Ipv4Address upstream_dns{8, 8, 8, 8};
    std::uint16_t uplink_port = 1;
    MacAddress upstream_gw_mac = MacAddress::from_index(0xfffffe);
    std::uint32_t cache_ttl_secs = 600;
  };

  static constexpr const char* kName = "dns-proxy";

  DnsProxy(Config config, DeviceRegistry& registry, policy::PolicyEngine& policy);

  void contribute_flows(nox::DatapathId dpid,
                        nox::FlowIntentSink& sink) override;
  nox::Disposition handle_packet_in(const nox::PacketInEvent& ev) override;

  // -- Flow admission interface used by the forwarding module ------------------
  enum class FlowVerdict { Allow, Deny, Unknown };
  /// Synchronous check: is `dst` covered by a name this device (behind
  /// `dpid`) was allowed to resolve, or is the device unrestricted?
  [[nodiscard]] FlowVerdict check_flow(nox::DatapathId dpid, MacAddress device,
                                       Ipv4Address dst) const;
  /// Asynchronous reverse lookup for Unknown verdicts: fires `cb` with the
  /// final Allow/Deny once the PTR answer (or timeout) arrives.
  void reverse_lookup(nox::DatapathId dpid, MacAddress device, Ipv4Address dst,
                      std::function<void(FlowVerdict)> cb);

  /// Names this device successfully resolved recently (for the UI).
  [[nodiscard]] std::vector<std::string> names_for(nox::DatapathId dpid,
                                                   MacAddress device) const;

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter queries{"homework.dns.queries"};
    telemetry::Counter blocked{"homework.dns.blocked"};  // refused by policy
    telemetry::Counter forwarded{"homework.dns.forwarded"};  // relayed upstream
    // Upstream answers relayed back.
    telemetry::Counter responses{"homework.dns.responses"};
    telemetry::Counter reverse_lookups{"homework.dns.reverse_lookups"};
    telemetry::Counter cache_entries{"homework.dns.cache_entries"};
    telemetry::Counter dropped_unpermitted{"homework.dns.dropped_unpermitted"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  /// Drops all cached name→address verdicts (policy changed).
  void flush_cache();

 private:
  void handle_query(const nox::PacketInEvent& ev);
  void handle_response(const nox::PacketInEvent& ev);
  void relay_upstream(nox::DatapathId dpid, const net::ParsedPacket& packet);
  void send_to_device(nox::DatapathId dpid, MacAddress device_mac,
                      std::uint16_t device_port, Ipv4Address device_ip,
                      std::uint16_t device_udp_port, const net::DnsMessage& msg);
  void record_answers(nox::DatapathId dpid, MacAddress device,
                      const net::DnsMessage& msg);

  Config config_;
  DeviceRegistry& registry_;
  policy::PolicyEngine& policy_;
  Instruments metrics_;

  /// Per-device name cache: (home, device) → (ip → {names, expiry}). Two
  /// homes resolving the same name must not share verdicts: their devices
  /// are restricted independently.
  struct CacheEntry {
    std::set<std::string> names;
    Timestamp expires_at = 0;
  };
  std::map<std::pair<nox::DatapathId, MacAddress>,
           std::unordered_map<Ipv4Address, CacheEntry>>
      cache_;

  /// Outstanding client queries relayed upstream, keyed by (home, client ip,
  /// dns id) — overlapping private address space means the same (ip, id)
  /// pair can be in flight from two homes at once.
  struct PendingQuery {
    MacAddress device;
    std::uint16_t device_port = 0;  // switch port
    std::string qname;
  };
  std::map<std::tuple<nox::DatapathId, std::uint32_t, std::uint16_t>,
           PendingQuery>
      pending_;

  /// Outstanding reverse lookups keyed by dns id of our own PTR query (ids
  /// are drawn from one shared counter, so the id alone is unambiguous).
  struct PendingReverse {
    nox::DatapathId dpid = 0;
    MacAddress device;
    Ipv4Address target;
    std::function<void(FlowVerdict)> cb;
    sim::EventLoop::EventId timeout = 0;
  };
  std::map<std::uint16_t, PendingReverse> reverse_pending_;
  std::uint16_t next_reverse_id_ = 1;
};

}  // namespace hw::homework
