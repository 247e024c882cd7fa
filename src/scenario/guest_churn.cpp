#include "scenario/guest_churn.hpp"

#include "homework/control_api.hpp"
#include "homework/device_registry.hpp"
#include "homework/forwarding.hpp"
#include "openflow/datapath.hpp"
#include "reconcile/reconciler.hpp"

namespace hw::scenario {

workload::HomeScenario::Config GuestChurnScenario::home_config() const {
  workload::HomeScenario::Config cfg;
  // Unknown devices wait for the user's drag-to-permitted — the whole point
  // of the flash crowd is driving that decision path at burst rate.
  cfg.router.admission = homework::DeviceRegistry::AdmissionDefault::Pending;
  return cfg;
}

void GuestChurnScenario::populate(workload::HomeScenario& home) {
  for (std::size_t i = 0; i < params_.residents; ++i) {
    const std::string name = "resident-" + std::to_string(i);
    home.add_device({name, workload::DeviceKind::Laptop, std::nullopt});
    home.permit(name);
    sim::Host* host = home.devices().back().host.get();
    home.loop().schedule(100 * kMillisecond + i * 50 * kMillisecond,
                         [host] { host->start_dhcp(); });
  }
  for (std::size_t g = 0; g < guest_count(); ++g) {
    home.add_device({"guest-" + std::to_string(g),
                     workload::DeviceKind::Phone, std::nullopt});
  }
}

void GuestChurnScenario::drive(sim::EventLoop& loop) {
  const Duration last_burst =
      params_.first_burst + (params_.bursts - 1) * params_.burst_spacing;
  set_attack_window(params_.first_burst, last_burst + params_.expel_after);

  auto& devices = home().devices();
  homework::ControlApi* api = &router().control_api();
  for (std::size_t b = 0; b < params_.bursts; ++b) {
    const Timestamp burst_at = params_.first_burst + b * params_.burst_spacing;
    for (std::size_t i = 0; i < params_.burst_size; ++i) {
      const std::size_t g = b * params_.burst_size + i;
      sim::Host* host = devices[params_.residents + g].host.get();
      const std::string mac = host->mac().to_string();

      // Admit through the API (the Figure 3 drag), then the guest DHCPs.
      loop.schedule_at(burst_at, [this, api, mac] {
        homework::HttpRequest req;
        req.method = "POST";
        req.path = "/api/devices/" + mac + "/permit";
        (void)api->handle(req);
        record_attack();
      });
      auto first = std::make_shared<bool>(true);
      host->on_bound([this, first, burst_at, &loop] {
        if (!*first) return;
        *first = false;
        ++guest_binds_;
        record_recovery(loop.now() - burst_at);
      });
      loop.schedule_at(burst_at + 50 * kMillisecond + i * 10 * kMillisecond,
                       [host] { host->start_dhcp(); });

      // Every burst but the last gets expelled; the rude guest immediately
      // asks again and must be NAKed into staying unbound.
      if (b + 1 < params_.bursts) {
        const Timestamp expel_at = burst_at + params_.expel_after;
        loop.schedule_at(expel_at, [this, api, mac] {
          homework::HttpRequest req;
          req.method = "POST";
          req.path = "/api/devices/" + mac + "/deny";
          (void)api->handle(req);
          record_attack();
        });
        loop.schedule_at(expel_at + 100 * kMillisecond,
                         [host] { host->start_dhcp(); });
      }
    }
  }

  // Quarantine one final-burst guest by policy for a window: install → the
  // guest's traffic must be dropped → delete.
  sim::Host* quarantined =
      devices[params_.residents + (params_.bursts - 1) * params_.burst_size]
          .host.get();
  const std::string qmac = quarantined->mac().to_string();
  loop.schedule_at(params_.policy_install_at, [this, api, qmac] {
    homework::HttpRequest req;
    req.method = "POST";
    req.path = "/api/policies";
    req.body = "{\"id\":\"quarantine\",\"who\":{\"macs\":[\"" + qmac +
               "\"]},\"block_network\":true}";
    policy_install_status_ = api->handle(req).status;
    record_attack();
  });
  const Ipv4Address outside{198, 51, 100, 7};
  for (int i = 0; i < 3; ++i) {
    loop.schedule_at(
        params_.policy_install_at + 500 * kMillisecond * (i + 1),
        [quarantined, outside] {
          (void)quarantined->send_udp(outside, 33000, 443, 64);
        });
  }
  // The compiled policy layer drops the quarantined traffic *in the table*
  // (no packet-in reaches the reactive deny path), so sample the block
  // rules' own match counters just before the policy comes back out.
  loop.schedule_at(params_.policy_delete_at - 100 * kMillisecond, [this] {
    router().datapath().table().for_each([this](const ofp::FlowEntry& e) {
      if (e.priority != 0x9100) return;  // reconciler's kPolicyBlockPriority
      ++quarantine_drop_flows_;
      quarantine_dropped_packets_ += e.packet_count;
    });
  });
  loop.schedule_at(params_.policy_delete_at, [this, api] {
    homework::HttpRequest req;
    req.method = "DELETE";
    req.path = "/api/policies/quarantine";
    policy_delete_status_ = api->handle(req).status;
    record_attack();
  });
}

void GuestChurnScenario::verify(Report& report) {
  expect(report, "every-admitted-guest-bound", guest_binds_ == guest_count(),
         std::to_string(guest_binds_) + "/" + std::to_string(guest_count()) +
             " bound");

  auto& devices = home().devices();
  auto& registry = router().registry();
  const std::size_t expelled = (params_.bursts - 1) * params_.burst_size;
  std::size_t expelled_ok = 0;
  std::size_t kept_ok = 0;
  for (std::size_t g = 0; g < guest_count(); ++g) {
    const auto& device = devices[params_.residents + g];
    sim::Host* host = device.host.get();
    const auto* rec = registry.find(device.attachment.dpid, host->mac());
    if (g < expelled) {
      if (!host->ip().has_value() && rec != nullptr &&
          rec->state == homework::DeviceState::Denied) {
        ++expelled_ok;
      }
    } else if (host->ip().has_value() && rec != nullptr &&
               rec->state == homework::DeviceState::Permitted && rec->lease) {
      ++kept_ok;
    }
  }
  expect(report, "expelled-guests-denied-and-unbound",
         expelled_ok == expelled,
         std::to_string(expelled_ok) + "/" + std::to_string(expelled));
  std::size_t residents_bound = 0;
  for (std::size_t i = 0; i < params_.residents; ++i) {
    if (devices[i].host->ip().has_value()) ++residents_bound;
  }
  expect(report, "final-burst-and-residents-keep-leases",
         kept_ok == params_.burst_size &&
             residents_bound == params_.residents,
         "kept=" + std::to_string(kept_ok) + "/" +
             std::to_string(params_.burst_size) + " residents=" +
             std::to_string(residents_bound));

  const auto& api = router().control_api().stats();
  expect(report, "api-accounting-matches-bursts",
         api.permits.value() == guest_count() && api.denies.value() == expelled,
         "permits=" + std::to_string(api.permits.value()) + " denies=" +
             std::to_string(api.denies.value()));

  // The 201/204 must have actually moved packets: block flows present and
  // matching mid-window, then compiled back out once the policy was deleted.
  std::size_t block_flows_left = 0;
  router().datapath().table().for_each([&](const ofp::FlowEntry& e) {
    if (e.priority == 0x9100) ++block_flows_left;
  });
  expect(report, "policy-quarantine-round-trip",
         policy_install_status_ == 201 && policy_delete_status_ == 204 &&
             quarantine_drop_flows_ >= 2 && quarantine_dropped_packets_ > 0 &&
             block_flows_left == 0,
         "install=" + std::to_string(policy_install_status_) + " delete=" +
             std::to_string(policy_delete_status_) + " drop_flows=" +
             std::to_string(quarantine_drop_flows_) + " dropped_pkts=" +
             std::to_string(quarantine_dropped_packets_) + " left=" +
             std::to_string(block_flows_left));

  auto* reconciler = router().reconciler();
  const auto& dp = router().datapath();
  expect(report, "reconcile-converges-after-churn",
         reconciler != nullptr &&
             reconciler->verify_converged(dp.id(), dp.table()));
}

}  // namespace hw::scenario
