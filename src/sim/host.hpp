// A simulated home device: NIC, ARP, DHCP client state machine, DNS stub
// resolver and raw traffic helpers. Hosts attach to a router port through a
// LinkChannel pair and speak real wire formats, so the router's OpenFlow
// pipeline and NOX modules see exactly what physical devices would send.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/dhcp.hpp"
#include "net/dns.hpp"
#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/link.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"

namespace hw::sim {

/// RFC 2131 client states (subset: no INIT-REBOOT/REBINDING distinction).
enum class DhcpClientState {
  Init,
  Selecting,
  Requesting,
  Bound,
  Renewing,
};

const char* to_string(DhcpClientState s);

class Host final : public FrameSink {
 public:
  struct Config {
    std::string name = "device";
    MacAddress mac;
    std::string hostname;  // sent in DHCP option 12; defaults to name
    Duration dhcp_retry_interval = 2 * kSecond;
    int dhcp_max_retries = 4;
  };

  Host(EventLoop& loop, Config config, Rng& rng);

  /// Wires the host's transmit side to a link towards the router.
  void attach_uplink(LinkChannel* uplink) { uplink_ = uplink; }

  // -- FrameSink: frames arriving from the network --------------------------
  void deliver(const Bytes& frame) override;

  // -- DHCP client -----------------------------------------------------------
  /// Starts (or restarts) address acquisition.
  void start_dhcp();
  /// Sends DHCPRELEASE and forgets the lease.
  void release_dhcp();
  /// Snapshot-restore only: adopts a lease the captured home had already
  /// granted this host. Sets the bound state and arms the renewal timer but
  /// sends no traffic and does NOT fire on_bound — a restore reproduces
  /// state, not the exchange that built it.
  void adopt_lease(Ipv4Address ip, Ipv4Address gateway, Ipv4Address dns,
                   Ipv4Address server, std::uint32_t lease_secs);
  /// Snapshot-restore only: re-seeds an ARP entry the captured host had
  /// already learned, so a restored host does not re-resolve (and so emit
  /// traffic) for a next-hop the first life resolved before the capture.
  void seed_arp(Ipv4Address ip, MacAddress mac) { arp_cache_[ip] = mac; }
  [[nodiscard]] const std::unordered_map<Ipv4Address, MacAddress>& arp_cache()
      const {
    return arp_cache_;
  }
  [[nodiscard]] DhcpClientState dhcp_state() const { return dhcp_state_; }
  [[nodiscard]] std::optional<Ipv4Address> ip() const { return ip_; }
  [[nodiscard]] std::optional<Ipv4Address> gateway() const { return gateway_; }
  [[nodiscard]] std::optional<Ipv4Address> dns_server() const { return dns_server_; }
  /// Fired on each transition into Bound (initial bind and renewals).
  void on_bound(std::function<void()> fn) { on_bound_ = std::move(fn); }
  /// Fired when the server NAKs us (e.g. the user denied this device).
  void on_nak(std::function<void()> fn) { on_nak_ = std::move(fn); }

  // -- DNS stub resolver ------------------------------------------------------
  using ResolveCallback =
      std::function<void(Result<Ipv4Address>, const std::string& name)>;
  /// Resolves `name` via the configured DNS server (times out after 3 s).
  void resolve(const std::string& name, ResolveCallback cb);

  // -- Raw traffic helpers ----------------------------------------------------
  /// Sends a UDP datagram of `payload_size` filler bytes (at most 65535) to
  /// dst; requires a bound address. Returns false if not bound / no uplink.
  bool send_udp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                std::size_t payload_size);
  /// Sends a bare TCP segment (the traffic model generates segment trains).
  bool send_tcp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                std::uint8_t flags, std::size_t payload_size);
  /// ICMP echo request; replies surface via on_echo_reply.
  bool ping(Ipv4Address dst, std::uint16_t seq);
  void on_echo_reply(std::function<void(Ipv4Address, std::uint16_t)> fn) {
    on_echo_reply_ = std::move(fn);
  }

  /// Registers a UDP receive handler for a local port.
  void on_udp(std::uint16_t port,
              std::function<void(const net::ParsedPacket&)> handler);

  [[nodiscard]] const Config& config() const { return config_; }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter tx_frames{"sim.host.tx_frames"};
    telemetry::Counter tx_bytes{"sim.host.tx_bytes"};
    telemetry::Counter rx_frames{"sim.host.rx_frames"};
    telemetry::Counter rx_bytes{"sim.host.rx_bytes"};
    telemetry::Counter dhcp_acks{"sim.host.dhcp_acks"};
    telemetry::Counter dhcp_naks{"sim.host.dhcp_naks"};
    telemetry::Counter dns_answers{"sim.host.dns_answers"};
    telemetry::Counter dns_failures{"sim.host.dns_failures"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] MacAddress mac() const { return config_.mac; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

 private:
  void send_frame(Bytes frame);
  void send_ip(Ipv4Address dst, Bytes frame_bytes);
  void handle_arp(const net::ArpMessage& arp);
  void handle_dhcp(const net::ParsedPacket& p);
  void handle_dns_response(const net::ParsedPacket& p);
  void send_discover();
  void send_request(Ipv4Address requested, Ipv4Address server);
  void dhcp_timeout();
  void schedule_renewal();
  /// The next hop towards `dst`: the gateway.
  [[nodiscard]] Ipv4Address next_hop(Ipv4Address dst) const;
  /// Sends `build(next-hop MAC)` at once when ARP already knows the next
  /// hop (the gateway); only otherwise does `build` become a queued
  /// std::function, via transmit_after_arp.
  template <typename Build>
  void transmit_via_gateway(Ipv4Address dst, Build build);
  /// Queues `builder` until ARP resolves the next hop and sends the request.
  void transmit_after_arp(Ipv4Address dst,
                          std::function<Bytes(MacAddress dst_mac)> builder);

  EventLoop& loop_;
  Config config_;
  Rng& rng_;
  LinkChannel* uplink_ = nullptr;
  Instruments metrics_;

  // DHCP
  DhcpClientState dhcp_state_ = DhcpClientState::Init;
  std::uint32_t dhcp_xid_ = 0;
  int dhcp_retries_ = 0;
  EventLoop::EventId dhcp_timer_ = 0;
  std::optional<Ipv4Address> ip_;
  std::optional<Ipv4Address> gateway_;
  std::optional<Ipv4Address> dns_server_;
  std::optional<Ipv4Address> dhcp_server_;
  std::uint32_t lease_secs_ = 0;
  std::function<void()> on_bound_;
  std::function<void()> on_nak_;

  // ARP
  std::unordered_map<Ipv4Address, MacAddress> arp_cache_;
  struct PendingSend {
    Ipv4Address next_hop;
    std::function<Bytes(MacAddress)> builder;
  };
  std::vector<PendingSend> pending_sends_;

  // DNS
  struct PendingQuery {
    std::string name;
    ResolveCallback cb;
    EventLoop::EventId timeout = 0;
  };
  std::map<std::uint16_t, PendingQuery> dns_pending_;
  std::uint16_t dns_port_ = 0;  // ephemeral source port

  std::map<std::uint16_t, std::function<void(const net::ParsedPacket&)>>
      udp_handlers_;
  std::function<void(Ipv4Address, std::uint16_t)> on_echo_reply_;
};

}  // namespace hw::sim
