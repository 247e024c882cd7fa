#include "workload/scenario.hpp"

namespace hw::workload {

const char* to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::Laptop: return "laptop";
    case DeviceKind::Phone: return "phone";
    case DeviceKind::Tablet: return "tablet";
    case DeviceKind::Tv: return "tv";
    case DeviceKind::Console: return "console";
    case DeviceKind::Printer: return "printer";
    case DeviceKind::Artifact: return "artifact";
  }
  return "?";
}

HomeScenario::HomeScenario(Config config, telemetry::MetricRegistry& metrics)
    : config_(config),
      metrics_(metrics),
      loop_(config.clock_origin),
      rng_(config.seed) {
  router_ = std::make_unique<homework::HomeworkRouter>(loop_, rng_,
                                                       config_.router, metrics_);
}

HomeScenario::~HomeScenario() {
  // Apps reference hosts; drop them before the hosts.
  for (auto& d : devices_) d.apps.clear();
}

void HomeScenario::register_services() {
  auto& up = router_->upstream();
  up.add_zone_entry("www.bbc.co.uk", Ipv4Address{212, 58, 233, 1});
  up.add_zone_entry("www.facebook.com", Ipv4Address{31, 13, 72, 1});
  up.add_zone_entry("facebook.com", Ipv4Address{31, 13, 72, 2});
  up.add_zone_entry("video.netflix.com", Ipv4Address{45, 57, 3, 1});
  up.add_zone_entry("stream.iplayer.co.uk", Ipv4Address{212, 58, 244, 9});
  up.add_zone_entry("mail.google.com", Ipv4Address{142, 250, 1, 17});
  up.add_zone_entry("voice.skype.com", Ipv4Address{52, 113, 194, 132});
  up.add_zone_entry("play.xbox.com", Ipv4Address{40, 64, 89, 7});
  up.add_zone_entry("updates.ubuntu.com", Ipv4Address{91, 189, 91, 38});
  up.add_zone_entry("www.example.com", Ipv4Address{93, 184, 216, 34});
}

void HomeScenario::start() {
  register_services();
  router_->start();
}

std::size_t HomeScenario::add_device(const DeviceSpec& spec) {
  // Hosts carry bare instruments (sim.host.*); scope them to this home.
  telemetry::ScopedMetricRegistry scope(metrics_);
  sim::Host::Config host_config;
  host_config.name = spec.name;
  host_config.mac = MacAddress::from_index(next_mac_index_++);
  host_config.hostname = spec.name;

  Device d;
  d.name = spec.name;
  d.kind = spec.kind;
  d.host = std::make_unique<sim::Host>(loop_, host_config, rng_);
  d.attachment = router_->attach_device(*d.host, spec.position);
  devices_.push_back(std::move(d));
  return devices_.size() - 1;
}

void HomeScenario::populate_standard_home() {
  add_device({"toms-mac-air", DeviceKind::Laptop, sim::Position{8, 3}});
  add_device({"kates-phone", DeviceKind::Phone, sim::Position{12, 9}});
  add_device({"living-room-tv", DeviceKind::Tv, sim::Position{2, 7}});
  add_device({"kids-console", DeviceKind::Console, sim::Position{14, 14}});
  add_device({"printer", DeviceKind::Printer, std::nullopt});
  add_device({"network-artifact", DeviceKind::Artifact, sim::Position{5, 5}});
}

HomeScenario::Device* HomeScenario::device(const std::string& name) {
  for (auto& d : devices_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

void HomeScenario::permit_all() {
  for (auto& d : devices_) {
    router_->registry().set_state(d.attachment.dpid, d.host->mac(),
                                  homework::DeviceState::Permitted, loop_.now());
  }
}

void HomeScenario::permit(const std::string& name) {
  if (Device* d = device(name)) {
    router_->registry().set_state(d->attachment.dpid, d->host->mac(),
                                  homework::DeviceState::Permitted, loop_.now());
  }
}

void HomeScenario::start_dhcp(const std::string& name) {
  if (Device* d = device(name)) d->host->start_dhcp();
}

void HomeScenario::start_dhcp_all() {
  for (auto& d : devices_) d.host->start_dhcp();
}

bool HomeScenario::wait_all_bound(Duration deadline) {
  const Timestamp until = loop_.now() + deadline;
  while (loop_.now() < until) {
    bool all = true;
    for (auto& d : devices_) {
      const auto* rec =
          router_->registry().find(d.attachment.dpid, d.host->mac());
      // A device is expected to obtain a lease if it is already permitted,
      // or has not yet been seen under a permit-all admission default.
      const bool expects_lease =
          (rec != nullptr && rec->state == homework::DeviceState::Permitted) ||
          (rec == nullptr &&
           router_->registry().admission_default() ==
               homework::DeviceRegistry::AdmissionDefault::PermitAll);
      if (expects_lease && !d.host->ip()) {
        all = false;
        break;
      }
    }
    if (all) return true;
    loop_.run_for(100 * kMillisecond);
  }
  return false;
}

void HomeScenario::adopt_restored_leases() {
  const auto& dhcp = router_->dhcp().config();
  for (auto& d : devices_) {
    const auto* rec =
        router_->registry().find(d.attachment.dpid, d.host->mac());
    if (rec == nullptr || rec->state != homework::DeviceState::Permitted ||
        !rec->lease) {
      continue;
    }
    d.host->adopt_lease(rec->lease->ip, dhcp.server_ip, dhcp.server_ip,
                        dhcp.server_ip, dhcp.lease_secs);
  }
}

std::vector<AppProfile> HomeScenario::app_mix(DeviceKind kind) const {
  switch (kind) {
    case DeviceKind::Laptop:
      return {AppProfile::web("www.bbc.co.uk"),
              AppProfile::bulk("updates.ubuntu.com"),
              AppProfile::email("mail.google.com")};
    case DeviceKind::Phone:
      return {AppProfile::web("www.facebook.com"),
              AppProfile::voip("voice.skype.com")};
    case DeviceKind::Tablet:
      return {AppProfile::web("www.facebook.com"),
              AppProfile::streaming("stream.iplayer.co.uk")};
    case DeviceKind::Tv:
      return {AppProfile::streaming("video.netflix.com")};
    case DeviceKind::Console:
      return {AppProfile::gaming("play.xbox.com"),
              AppProfile::web("www.facebook.com")};
    case DeviceKind::Printer:
      return {};
    case DeviceKind::Artifact:
      return {};
  }
  return {};
}

void HomeScenario::start_apps(const std::string& name) {
  Device* d = device(name);
  if (d == nullptr) return;
  // Traffic apps carry bare instruments (workload.app.*); scope them too.
  telemetry::ScopedMetricRegistry scope(metrics_);
  for (const auto& profile : app_mix(d->kind)) {
    d->apps.push_back(
        std::make_unique<TrafficApp>(loop_, *d->host, rng_, profile));
    d->apps.back()->start();
  }
}

void HomeScenario::start_apps_all() {
  for (auto& d : devices_) start_apps(d.name);
}

void HomeScenario::stop_apps_all() {
  for (auto& d : devices_) {
    for (auto& app : d.apps) app->stop();
  }
}

}  // namespace hw::workload
