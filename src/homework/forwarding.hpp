// Router-mediated forwarding NOX module. Devices hold /32 leases, so every
// packet — even to a peer on the same LAN — arrives addressed to the router.
// This module proxy-ARPs for the gateway (and for peer addresses, keeping
// devices from ever talking at the Ethernet layer, per paper §2), admits
// flows through the policy/DNS checks, and installs exact-match OpenFlow
// rules so admitted traffic is forwarded in the datapath with the MAC
// rewrites of an IP hop.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "homework/device_registry.hpp"
#include "homework/dns_proxy.hpp"
#include "nox/component.hpp"
#include "nox/controller.hpp"
#include "policy/engine.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class Forwarding final : public nox::Component {
 public:
  struct Config {
    Ipv4Address router_ip{192, 168, 1, 1};
    MacAddress router_mac = MacAddress::from_index(0xffffff);
    Ipv4Subnet subnet{Ipv4Address{192, 168, 1, 0}, 24};
    std::uint16_t uplink_port = 1;
    MacAddress upstream_gw_mac = MacAddress::from_index(0xfffffe);
    std::uint16_t flow_idle_timeout = 10;  // seconds
    std::uint16_t deny_idle_timeout = 5;   // seconds for installed drop rules
    /// Out-of-band queue configuration (the ovs-vsctl role): invoked before
    /// an enqueue action referencing (port, queue_id) is installed for a
    /// rate-limited device. Null disables rate limiting.
    std::function<void(std::uint16_t port, std::uint32_t queue_id,
                       std::uint64_t rate_bps)>
        configure_queue;
  };

  static constexpr const char* kName = "forwarding";

  Forwarding(Config config, DeviceRegistry& registry,
             policy::PolicyEngine& policy);

  [[nodiscard]] std::vector<std::string> dependencies() const override {
    return {DnsProxy::kName};
  }

  void install(nox::Controller& ctl) override;
  void contribute_flows(nox::DatapathId dpid,
                        nox::FlowIntentSink& sink) override;
  void handle_datapath_join(nox::DatapathId dpid,
                            const ofp::FeaturesReply& features) override;
  nox::Disposition handle_packet_in(const nox::PacketInEvent& ev) override;

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter arp_replies{"homework.forwarding.arp_replies"};
    telemetry::Counter flows_installed{"homework.forwarding.flows_installed"};
    telemetry::Counter rate_limited_flows{"homework.forwarding.rate_limited_flows"};
    telemetry::Counter flows_denied{"homework.forwarding.flows_denied"};
    telemetry::Counter reverse_lookups_triggered{"homework.forwarding.reverse_lookups_triggered"};
    telemetry::Counter echo_replies{"homework.forwarding.echo_replies"};
    telemetry::Counter dropped_unknown_source{"homework.forwarding.dropped_unknown_source"};
    telemetry::Counter policy_revocations{"homework.forwarding.policy_revocations"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

  /// Deletes every forwarding rule (policy changed / manual flush); traffic
  /// re-admits through fresh packet-ins.
  void revoke_all_flows();
  /// Deletes rules touching one device's address on its home datapath — the
  /// same private address is in use in other homes and must stay installed
  /// there.
  void revoke_device_flows(nox::DatapathId dpid, Ipv4Address ip);

 private:
  void handle_arp(const nox::PacketInEvent& ev);
  void handle_ipv4(const nox::PacketInEvent& ev);
  void admit_flow(const nox::PacketInEvent& ev, bool allowed);
  /// Installs forward+reverse exact-match rules for the packet's flow and
  /// releases the buffered packet; or a drop rule when !allowed.
  void install_pair(nox::DatapathId dpid, const net::ParsedPacket& packet,
                    std::uint16_t in_port, std::uint32_t buffer_id, bool allowed);
  struct NextHop {
    std::uint16_t port = 0;
    MacAddress mac;
    bool known = false;
  };
  [[nodiscard]] NextHop next_hop_for(nox::DatapathId dpid,
                                     Ipv4Address dst) const;

  Config config_;
  DeviceRegistry& registry_;
  policy::PolicyEngine& policy_;
  DnsProxy* dns_ = nullptr;  // resolved at install()
  Instruments metrics_;
  std::vector<nox::DatapathId> datapaths_;
};

}  // namespace hw::homework
