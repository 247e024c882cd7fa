// Application traffic models. Each TrafficApp drives a sim::Host through a
// realistic session: resolve the service's domain through the router's DNS
// proxy, open a TCP exchange (or UDP stream), then emit request segments on
// an application-specific cadence — producing the flow mix the Figure 1
// display breaks down per device and per protocol.
#pragma once

#include <memory>
#include <string>

#include "sim/event_loop.hpp"
#include "sim/host.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"

namespace hw::workload {

enum class AppKind { Web, Streaming, VoIP, Gaming, Bulk, Email };

const char* to_string(AppKind kind);

struct AppProfile {
  AppKind kind = AppKind::Web;
  std::string domain = "www.example.com";
  std::uint16_t dst_port = 80;
  bool tcp = true;
  /// Mean seconds between requests (exponential).
  double request_interval_mean = 2.0;
  /// Request payload bytes (uniform in [min,max]).
  std::size_t request_min = 200;
  std::size_t request_max = 1200;

  static AppProfile web(std::string domain);
  static AppProfile streaming(std::string domain);
  static AppProfile voip(std::string domain);
  static AppProfile gaming(std::string domain);
  static AppProfile bulk(std::string domain);
  static AppProfile email(std::string domain);
};

/// One running session. start() resolves and begins sending; stop() ends it.
class TrafficApp {
 public:
  TrafficApp(sim::EventLoop& loop, sim::Host& host, Rng& rng, AppProfile profile);
  ~TrafficApp();
  TrafficApp(const TrafficApp&) = delete;
  TrafficApp& operator=(const TrafficApp&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  /// The app's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter requests_sent{"workload.app.requests_sent"};
    telemetry::Counter dns_failures{"workload.app.dns_failures"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  /// Whether the service's domain has resolved.
  [[nodiscard]] bool resolved() const { return resolved_; }
  [[nodiscard]] const AppProfile& profile() const { return profile_; }

 private:
  void on_resolved(Ipv4Address server);
  void send_next();

  sim::EventLoop& loop_;
  sim::Host& host_;
  Rng& rng_;
  AppProfile profile_;
  Instruments metrics_;
  bool resolved_ = false;
  bool running_ = false;
  bool handshake_done_ = false;
  std::optional<Ipv4Address> server_;
  std::uint16_t src_port_ = 0;
  sim::EventLoop::EventId timer_ = 0;
};

}  // namespace hw::workload
