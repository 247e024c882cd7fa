// The Homework DHCP server NOX module. "The first manages DHCP allocations
// to ensure that all traffic flows are visible to software running on the
// router, avoiding direct Ethernet-layer communication between devices."
// (paper §2). Admission is gated on the DeviceRegistry state that the
// Figure 3 control interface manipulates; with isolation enabled, leases
// carry a /32 netmask so every client routes all traffic via the router.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "homework/device_registry.hpp"
#include "net/dhcp.hpp"
#include "nox/component.hpp"
#include "nox/controller.hpp"
#include "snapshot/snapshottable.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class DhcpServer final : public nox::Component, public snapshot::Snapshottable {
 public:
  struct Config {
    Ipv4Address server_ip{192, 168, 1, 1};
    Ipv4Subnet subnet{Ipv4Address{192, 168, 1, 0}, 24};
    Ipv4Address pool_start{192, 168, 1, 100};
    Ipv4Address pool_end{192, 168, 1, 199};
    std::uint32_t lease_secs = 3600;
    MacAddress router_mac = MacAddress::from_index(0xffffff);
    /// Router-mediated isolation: /32 netmask in leases.
    bool isolate = true;
    Duration expiry_sweep = 5 * kSecond;
    /// How long an offered-but-never-ACKed allocation is held before the
    /// sweep returns it to the pool. Leased allocations are exempt — once a
    /// device ACKs, its address stays sticky across release/expiry as
    /// before. This bounds how long a spoofed-MAC DISCOVER flood can pin
    /// the scope.
    Duration offer_hold = 10 * kSecond;
  };

  static constexpr const char* kName = "dhcp-server";

  DhcpServer(Config config, DeviceRegistry& registry);
  ~DhcpServer() override;

  void install(nox::Controller& ctl) override;
  void contribute_flows(nox::DatapathId dpid,
                        nox::FlowIntentSink& sink) override;
  nox::Disposition handle_packet_in(const nox::PacketInEvent& ev) override;

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter discovers{"homework.dhcp.discovers"};
    telemetry::Counter offers{"homework.dhcp.offers"};
    telemetry::Counter requests{"homework.dhcp.requests"};
    telemetry::Counter acks{"homework.dhcp.acks"};
    telemetry::Counter naks{"homework.dhcp.naks"};
    telemetry::Counter releases{"homework.dhcp.releases"};
    telemetry::Counter declines{"homework.dhcp.declines"};
    // Silent treatment of pending devices.
    telemetry::Counter ignored_pending{"homework.dhcp.ignored_pending"};
    telemetry::Counter pool_exhausted{"homework.dhcp.pool_exhausted"};
    telemetry::Counter expired{"homework.dhcp.expired"};
    /// Offered-but-never-ACKed allocations released back into the pool after
    /// offer_hold — the recovery path from a spoofed-DISCOVER starvation.
    telemetry::Counter offers_expired{"homework.dhcp.offers_expired"};
    /// Retransmitted DISCOVER/REQUEST messages (lossy network re-sends)
    /// answered idempotently from the existing allocation.
    telemetry::Counter retransmits{"homework.dhcp.retransmits"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Current address allocation in `dpid`'s scope, incl. offered-not-acked.
  [[nodiscard]] std::optional<Ipv4Address> allocation(nox::DatapathId dpid,
                                                      MacAddress mac) const;
  [[nodiscard]] std::optional<Ipv4Address> allocation(MacAddress mac) const {
    return allocation(registry_.default_dpid(), mac);
  }
  /// Runs one lease-expiry sweep immediately (normally timer-driven).
  void sweep_expiry();

  /// Observer for allocation lifecycle: fired with the address on ACK and
  /// with nullopt on release/decline/expiry. The goal-state layer mirrors
  /// scope bindings into desired state through this.
  using AllocationObserver =
      std::function<void(nox::DatapathId, MacAddress, std::optional<Ipv4Address>)>;
  void set_allocation_observer(AllocationObserver fn) {
    allocation_observer_ = std::move(fn);
  }
  /// Re-adopts `ip` as `mac`'s allocation in `dpid`'s scope (reconciler
  /// lease fixup after divergence). Returns true if the scope changed.
  bool adopt_allocation(nox::DatapathId dpid, MacAddress mac, Ipv4Address ip);

  // -- Snapshottable ('DHCP' chunk, v3: offer timestamps) ---------------------
  // Captures each home's allocation map (with offer timestamps), and the
  // declined-address set; lease expiry deadlines live in DeviceRegistry
  // records and are restored there. v2 images (no version sentinel, no
  // offer timestamps) still decode — their allocations restore as sticky.
  void save(snapshot::Writer& w) const override;
  Status restore(const snapshot::Reader& r) override;

 private:
  void process(nox::DatapathId dpid, std::uint16_t in_port,
               const net::ParsedPacket& packet, const net::DhcpMessage& msg);
  void send_reply(nox::DatapathId dpid, std::uint16_t port,
                  const net::DhcpMessage& reply, MacAddress client_mac);
  net::DhcpMessage make_reply(const net::DhcpMessage& req,
                              net::DhcpMessageType type, Ipv4Address yiaddr) const;
  /// Sticky allocation: reuse the previous address when possible. Each home
  /// datapath draws from its own copy of the pool. `now` stamps the offer
  /// for the unclaimed-offer hold.
  std::optional<Ipv4Address> allocate(nox::DatapathId dpid, MacAddress mac,
                                      Timestamp now);

  Config config_;
  DeviceRegistry& registry_;
  Instruments metrics_;
  /// One address binding: the allocation plus when it was offered.
  /// offered_at == 0 marks an ACKed (leased at least once) allocation,
  /// which is sticky forever; a non-zero offered_at means the offer was
  /// never claimed and the sweep may reclaim it after offer_hold.
  struct Binding {
    Ipv4Address ip;
    Timestamp offered_at = 0;
  };
  /// One home's address-space state. Homes behind different datapaths use
  /// identical (overlapping) private pools — exactly why scoping by dpid is
  /// load-bearing under a shared controller.
  struct Scope {
    std::map<MacAddress, Binding> allocations;
    std::set<Ipv4Address> declined;  // addresses a client reported in use
    /// Mirror of the allocated addresses so an exhaustion-era flood pays
    /// O(pool log n) per DISCOVER instead of O(pool * allocations).
    std::set<Ipv4Address> in_use;
  };
  std::map<nox::DatapathId, Scope> scopes_;
  std::unique_ptr<sim::PeriodicTimer> expiry_timer_;
  AllocationObserver allocation_observer_;
};

}  // namespace hw::homework
