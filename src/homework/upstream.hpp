// The simulated "upstream ISP" cloud behind the router's uplink port: an
// authoritative DNS service (A + PTR) over a configurable zone, plus generic
// remote servers that complete TCP handshakes, answer pings and return
// download payloads — enough behaviour to exercise every egress code path
// the real Internet would.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "net/dns.hpp"
#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/link.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class Upstream final : public sim::FrameSink {
 public:
  struct Config {
    MacAddress gw_mac = MacAddress::from_index(0xfffffe);
    Ipv4Address dns_ip{8, 8, 8, 8};
    Duration rtt = 20 * kMillisecond;  // one-way ~10ms each direction
    /// Response bytes returned per TCP data segment, keyed by server port
    /// (download model); ports not listed echo nothing, just ACK.
    std::map<std::uint16_t, std::size_t> response_bytes = {
        {80, 12000}, {443, 16000}, {8080, 8000}, {554, 32000}, {1935, 32000}};
    std::size_t mtu_payload = 1400;
  };

  Upstream(sim::EventLoop& loop, Config config);

  /// Where responses are injected (the datapath uplink-port ingress).
  void connect(sim::FrameSink* to_router) { to_router_ = to_router; }

  // -- DNS zone management -------------------------------------------------
  /// Registers `name` → `ip` (also serves the matching PTR record).
  void add_zone_entry(const std::string& name, Ipv4Address ip);
  [[nodiscard]] std::optional<Ipv4Address> lookup(const std::string& name) const;
  [[nodiscard]] std::size_t zone_size() const { return zone_.size(); }

  // -- FrameSink: traffic leaving the home ---------------------------------
  void deliver(const Bytes& frame) override;

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter frames_in{"homework.upstream.frames_in"};
    telemetry::Counter frames_out{"homework.upstream.frames_out"};
    telemetry::Counter dns_queries{"homework.upstream.dns_queries"};
    telemetry::Counter dns_nxdomain{"homework.upstream.dns_nxdomain"};
    telemetry::Counter tcp_syns{"homework.upstream.tcp_syns"};
    telemetry::Counter tcp_data_segments{"homework.upstream.tcp_data_segments"};
    telemetry::Counter bytes_served{"homework.upstream.bytes_served"};
    telemetry::Counter pings{"homework.upstream.pings"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

 private:
  void handle_dns(const net::ParsedPacket& p);
  void handle_tcp(const net::ParsedPacket& p);
  void handle_icmp(const net::ParsedPacket& p);
  void send(Bytes frame);

  sim::EventLoop& loop_;
  Config config_;
  sim::FrameSink* to_router_ = nullptr;
  Instruments metrics_;
  std::map<std::string, Ipv4Address> zone_;
  std::map<std::uint32_t, std::string> reverse_zone_;  // ip → name
  std::uint32_t tcp_seq_ = 1000;
};

}  // namespace hw::homework
