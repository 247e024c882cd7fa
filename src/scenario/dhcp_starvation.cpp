#include "scenario/dhcp_starvation.hpp"

#include <memory>
#include <set>

#include "homework/device_registry.hpp"
#include "homework/dhcp_server.hpp"

namespace hw::scenario {

namespace {
/// Spoofed source MACs live far above the home's real device indices.
constexpr std::uint32_t kSpoofBase = 0x100000u;
}  // namespace

workload::HomeScenario::Config DhcpStarvationScenario::home_config() const {
  workload::HomeScenario::Config cfg;
  // Open admission: the flood must be able to drain the pool — the attack
  // models a home where the owner enabled guest auto-admit.
  cfg.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  cfg.router.lease_secs = params_.lease_secs;
  cfg.router.dhcp_offer_hold = params_.offer_hold;
  return cfg;
}

void DhcpStarvationScenario::populate(workload::HomeScenario& home) {
  sim::EventLoop& loop = home.loop();
  for (std::size_t i = 0; i < params_.residents; ++i) {
    const std::size_t idx = home.add_device(
        {"resident" + std::to_string(i), workload::DeviceKind::Laptop,
         std::nullopt});
    sim::Host* host = home.devices()[idx].host.get();
    loop.schedule(static_cast<Duration>(i + 1) * 50 * kMillisecond,
                  [host] { host->start_dhcp(); });
  }
  attacker_index_ =
      home.add_device({"attacker", workload::DeviceKind::Artifact, std::nullopt});

  // Three fresh legitimate joiners arrive after the attack; their bind
  // latency (measured from the end of the attack) is the recovery series.
  late_joiner_index_ = home.devices().size();
  for (std::size_t i = 0; i < 3; ++i) {
    const std::size_t idx = home.add_device(
        {"latecomer" + std::to_string(i), workload::DeviceKind::Phone,
         std::nullopt});
    sim::Host* host = home.devices()[idx].host.get();
    auto bound = std::make_shared<bool>(false);
    host->on_bound([this, &loop, bound] {
      if (*bound) return;
      *bound = true;
      record_recovery(loop.now() - params_.attack_end);
      late_joiner_bound_at_ = loop.now();
    });
    loop.schedule_at(params_.late_join_at +
                         static_cast<Duration>(i) * 200 * kMillisecond,
                     [host] { host->start_dhcp(); });
  }
}

void DhcpStarvationScenario::drive(sim::EventLoop& loop) {
  set_attack_window(params_.attack_start, params_.attack_end);
  for (Timestamp t = params_.attack_start; t < params_.attack_end;
       t += params_.flood_interval) {
    const auto mac = MacAddress::from_index(
        kSpoofBase +
        static_cast<std::uint32_t>(attack_rng().uniform(params_.spoofed_macs)));
    const auto xid =
        static_cast<std::uint32_t>(attack_rng().uniform(0xffffffffu) + 1);
    const Bytes frame = spoofed_discover(mac, xid, "spoof");
    loop.schedule_at(t, [this, frame] { inject(attacker_index_, frame); });
    record_attack();
  }
}

void DhcpStarvationScenario::verify(Report& report) {
  const auto& dhcp = router().dhcp().stats();
  expect(report, "pool-exhausted-counted", dhcp.pool_exhausted.value() > 0,
         "pool_exhausted=" + std::to_string(dhcp.pool_exhausted.value()));

  // No legitimate lease lost: every resident still holds its address, was
  // never NAKed, and renewed at least once during/after the attack.
  bool leases_kept = true;
  bool renewed = true;
  std::string detail;
  for (std::size_t i = 0; i < params_.residents; ++i) {
    const auto& dev = home().devices()[i];
    const auto ip = dev.host->ip();
    const auto* rec = router().registry().find(dev.host->mac());
    const bool kept = ip && rec != nullptr && rec->lease &&
                      rec->lease->ip == *ip &&
                      dev.host->stats().dhcp_naks.value() == 0;
    leases_kept = leases_kept && kept;
    renewed = renewed && dev.host->stats().dhcp_acks.value() >= 2;
    if (!kept) detail += dev.name + " lost its lease; ";
  }
  expect(report, "no-legitimate-lease-lost", leases_kept, detail);
  expect(report, "renewals-survive-attack", renewed,
         "every resident re-ACKed mid-attack (acks >= 2)");

  // The scope never double-allocates: all current leases are distinct.
  std::set<std::uint32_t> ips;
  std::size_t leased = 0;
  bool distinct = true;
  for (const auto* rec : router().registry().all()) {
    if (!rec->lease) continue;
    ++leased;
    distinct = distinct && ips.insert(rec->lease->ip.value()).second;
  }
  expect(report, "no-double-allocation", distinct,
         std::to_string(leased) + " leases, all distinct addresses");

  // Pool recovery: unclaimed spoofed offers expired back into the pool and
  // the late joiners all bound.
  bool late_bound = true;
  for (std::size_t i = late_joiner_index_; i < home().devices().size(); ++i) {
    late_bound = late_bound && home().devices()[i].host->ip().has_value();
  }
  expect(report, "pool-recovers-after-attack",
         late_bound && dhcp.offers_expired.value() > 0,
         "offers_expired=" + std::to_string(dhcp.offers_expired.value()) +
             ", late joiners bound=" + (late_bound ? "yes" : "no"));
}

}  // namespace hw::scenario
