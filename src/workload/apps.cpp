#include "workload/apps.hpp"

namespace hw::workload {

const char* to_string(AppKind kind) {
  switch (kind) {
    case AppKind::Web: return "web";
    case AppKind::Streaming: return "streaming";
    case AppKind::VoIP: return "voip";
    case AppKind::Gaming: return "gaming";
    case AppKind::Bulk: return "bulk";
    case AppKind::Email: return "email";
  }
  return "?";
}

AppProfile AppProfile::web(std::string domain) {
  AppProfile p;
  p.kind = AppKind::Web;
  p.domain = std::move(domain);
  p.dst_port = 80;
  p.request_interval_mean = 3.0;
  p.request_min = 300;
  p.request_max = 1400;
  return p;
}

AppProfile AppProfile::streaming(std::string domain) {
  AppProfile p;
  p.kind = AppKind::Streaming;
  p.domain = std::move(domain);
  p.dst_port = 1935;
  p.request_interval_mean = 1.0;  // chunk fetch per second
  p.request_min = 400;
  p.request_max = 800;
  return p;
}

AppProfile AppProfile::voip(std::string domain) {
  AppProfile p;
  p.kind = AppKind::VoIP;
  p.domain = std::move(domain);
  p.dst_port = 5060;
  p.tcp = false;
  p.request_interval_mean = 0.05;  // 20 ms RTP cadence (mean)
  p.request_min = 160;
  p.request_max = 220;
  return p;
}

AppProfile AppProfile::gaming(std::string domain) {
  AppProfile p;
  p.kind = AppKind::Gaming;
  p.domain = std::move(domain);
  p.dst_port = 3074;
  p.tcp = false;
  p.request_interval_mean = 0.1;
  p.request_min = 60;
  p.request_max = 240;
  return p;
}

AppProfile AppProfile::bulk(std::string domain) {
  AppProfile p;
  p.kind = AppKind::Bulk;
  p.domain = std::move(domain);
  p.dst_port = 443;
  p.request_interval_mean = 0.3;
  p.request_min = 1000;
  p.request_max = 1400;
  return p;
}

AppProfile AppProfile::email(std::string domain) {
  AppProfile p;
  p.kind = AppKind::Email;
  p.domain = std::move(domain);
  p.dst_port = 993;
  p.request_interval_mean = 20.0;
  p.request_min = 200;
  p.request_max = 4000;
  return p;
}

TrafficApp::TrafficApp(sim::EventLoop& loop, sim::Host& host, Rng& rng,
                       AppProfile profile)
    : loop_(loop), host_(host), rng_(rng), profile_(std::move(profile)) {
  src_port_ = static_cast<std::uint16_t>(20000 + rng_.uniform(20000));
}

TrafficApp::~TrafficApp() { stop(); }

void TrafficApp::start() {
  if (running_) return;
  running_ = true;
  host_.resolve(profile_.domain,
                [this](Result<Ipv4Address> result, const std::string&) {
                  if (!running_) return;
                  if (!result) {
                    metrics_.dns_failures.inc();
                    // Blocked or failed: retry occasionally, as apps do.
                    timer_ = loop_.schedule(10 * kSecond, [this] {
                      if (running_) {
                        running_ = false;
                        start();
                      }
                    });
                    return;
                  }
                  resolved_ = true;
                  on_resolved(result.value());
                });
}

void TrafficApp::on_resolved(Ipv4Address server) {
  server_ = server;
  if (profile_.tcp) {
    host_.send_tcp(server, src_port_, profile_.dst_port, net::TcpFlags::kSyn, 0);
    handshake_done_ = false;
    // Data follows after a handshake-ish delay.
    timer_ = loop_.schedule(100 * kMillisecond, [this] {
      handshake_done_ = true;
      send_next();
    });
  } else {
    send_next();
  }
}

void TrafficApp::send_next() {
  if (!running_ || !server_) return;
  const std::size_t size = static_cast<std::size_t>(rng_.uniform_range(
      static_cast<std::int64_t>(profile_.request_min),
      static_cast<std::int64_t>(profile_.request_max)));
  if (profile_.tcp) {
    host_.send_tcp(*server_, src_port_, profile_.dst_port,
                   net::TcpFlags::kAck | net::TcpFlags::kPsh, size);
  } else {
    host_.send_udp(*server_, src_port_, profile_.dst_port, size);
  }
  metrics_.requests_sent.inc();
  const double wait = rng_.exponential(profile_.request_interval_mean);
  timer_ = loop_.schedule(static_cast<Duration>(wait * 1e6) + 1,
                          [this] { send_next(); });
}

void TrafficApp::stop() {
  if (!running_) return;
  running_ = false;
  loop_.cancel(timer_);
  if (profile_.tcp && server_ && handshake_done_) {
    host_.send_tcp(*server_, src_port_, profile_.dst_port, net::TcpFlags::kFin,
                   0);
  }
}

}  // namespace hw::workload
