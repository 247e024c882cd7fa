#include "scenario/iot_swarm.hpp"

#include <set>

#include "homework/device_registry.hpp"
#include "homework/dhcp_server.hpp"
#include "homework/forwarding.hpp"
#include "openflow/datapath.hpp"
#include "reconcile/reconciler.hpp"

namespace hw::scenario {

workload::HomeScenario::Config IotSwarmScenario::home_config() const {
  workload::HomeScenario::Config cfg;
  cfg.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  cfg.router.pool_start = Ipv4Address{192, 168, 1, 10};
  cfg.router.pool_end = Ipv4Address{192, 168, 1, 250};
  return cfg;
}

void IotSwarmScenario::populate(workload::HomeScenario& home) {
  for (std::size_t i = 0; i < params_.devices; ++i) {
    home.add_device({"iot-" + std::to_string(i),
                     workload::DeviceKind::Printer, std::nullopt});
  }
}

void IotSwarmScenario::drive(sim::EventLoop& loop) {
  set_attack_window(params_.join_start, params_.chatter_end);
  auto& devices = home().devices();
  const Ipv4Address cloud{203, 0, 113, 10};
  for (std::size_t i = 0; i < params_.devices; ++i) {
    sim::Host* host = devices[i].host.get();
    const Timestamp join_at = params_.join_start + i * params_.join_stagger;
    // Bind latency from the moment the device powered on — the swarm's DHCP
    // service time under mass admission is the recovery series.
    auto first = std::make_shared<bool>(true);
    host->on_bound([this, first, join_at, &loop] {
      if (!*first) return;
      *first = false;
      ++bound_count_;
      record_recovery(loop.now() - join_at);
    });
    loop.schedule_at(join_at, [host] { host->start_dhcp(); });
    record_attack();

    // Low-rate cloud chatter: one distinct 5-tuple per device, with a
    // per-device phase so the rounds don't land as a thundering herd.
    const Duration phase = attack_rng().uniform(500) * kMillisecond;
    const auto sport = static_cast<std::uint16_t>(20000 + i);
    for (Timestamp t = params_.chatter_start + phase; t < params_.chatter_end;
         t += params_.chatter_interval) {
      loop.schedule_at(t, [this, host, cloud, sport] {
        if (host->send_udp(cloud, sport, 8883, params_.chatter_bytes)) {
          record_attack();
        }
      });
    }
  }
}

void IotSwarmScenario::verify(Report& report) {
  expect(report, "swarm-fully-bound", bound_count_ == params_.devices,
         std::to_string(bound_count_) + "/" +
             std::to_string(params_.devices) + " bound");

  // Registry + scope scale: every device has a record with a live lease and
  // every lease is a distinct address.
  auto& registry = router().registry();
  std::set<Ipv4Address> ips;
  std::size_t leased = 0;
  for (const auto* rec : registry.all()) {
    if (rec->lease) {
      ++leased;
      ips.insert(rec->lease->ip);
    }
  }
  expect(report, "registry-tracks-swarm",
         registry.size() == params_.devices && leased == params_.devices,
         "records=" + std::to_string(registry.size()) + " leased=" +
             std::to_string(leased));
  expect(report, "leases-all-distinct", ips.size() == leased,
         std::to_string(ips.size()) + " distinct of " +
             std::to_string(leased));

  const auto& dhcp = router().dhcp().stats();
  const auto& dp = router().datapath().stats();
  expect(report, "no-starvation-at-scale",
         dhcp.pool_exhausted.value() == 0 && dp.failsafe_entries.value() == 0,
         "pool_exhausted=" + std::to_string(dhcp.pool_exhausted.value()) +
             " failsafe_entries=" +
             std::to_string(dp.failsafe_entries.value()));

  const auto& table = router().datapath().table().stats();
  const std::size_t size = router().datapath().table().size();
  const std::size_t capacity = router().config().datapath.table_capacity;
  const auto& fwd = router().forwarding().stats();
  expect(report, "chatter-flows-within-capacity",
         fwd.flows_installed.value() >= params_.devices &&
             table.table_full.value() == 0 && size <= capacity,
         "flows_installed=" + std::to_string(fwd.flows_installed.value()) +
             " table=" + std::to_string(size) + "/" +
             std::to_string(capacity) +
             " table_full=" + std::to_string(table.table_full.value()));

  auto* reconciler = router().reconciler();
  const auto& dpath = router().datapath();
  expect(report, "reconcile-converges-at-scale",
         reconciler != nullptr &&
             reconciler->verify_converged(dpath.id(), dpath.table()));
}

}  // namespace hw::scenario
