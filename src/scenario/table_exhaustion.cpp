#include "scenario/table_exhaustion.hpp"

#include <map>

#include "homework/device_registry.hpp"
#include "homework/forwarding.hpp"
#include "openflow/datapath.hpp"
#include "reconcile/reconciler.hpp"

namespace hw::scenario {

workload::HomeScenario::Config TableExhaustionScenario::home_config() const {
  workload::HomeScenario::Config cfg;
  cfg.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  cfg.router.datapath.table_capacity = params_.table_capacity;
  cfg.router.datapath.microflow_capacity = params_.microflow_capacity;
  cfg.router.datapath.controller_dead_interval =
      params_.controller_dead_interval;
  cfg.router.liveness.probe_interval = kSecond;
  return cfg;
}

void TableExhaustionScenario::populate(workload::HomeScenario& home) {
  sim::EventLoop& loop = home.loop();
  const std::size_t victim = home.add_device(
      {"victim", workload::DeviceKind::Laptop, std::nullopt});
  const std::size_t compromised = home.add_device(
      {"compromised", workload::DeviceKind::Tv, std::nullopt});
  sim::Host* victim_host = home.devices()[victim].host.get();
  sim::Host* attacker_host = home.devices()[compromised].host.get();
  loop.schedule(50 * kMillisecond, [victim_host] { victim_host->start_dhcp(); });
  loop.schedule(100 * kMillisecond,
                [attacker_host] { attacker_host->start_dhcp(); });

  // The victim's steady flow: one established connection that must survive
  // the attack and the fail-safe window (fail-safe permits established).
  const Ipv4Address steady_dst{93, 184, 216, 34};
  for (Timestamp t = kSecond; t < config_.duration - kSecond;
       t += 500 * kMillisecond) {
    loop.schedule_at(t, [victim_host, steady_dst] {
      (void)victim_host->send_udp(steady_dst, 42000, 443, 128);
    });
  }

  // Mid-attack controller outage: compose it into whatever chaos plan the
  // caller provided so fail-safe entry/exit happens under fire.
  if (!config_.faults) config_.faults.emplace();
  config_.faults->seed = config_.faults->seed ^ config_.seed;
  sim::FaultWindow outage;
  outage.kind = sim::FaultKind::ControllerOutage;
  outage.start = params_.outage_start;
  outage.duration = params_.outage_end - params_.outage_start;
  config_.faults->windows.push_back(outage);

  // Table-size / fail-safe sampler: the capacity invariant is checked
  // continuously, not just at the end.
  ofp::Datapath* dp = &home.router().datapath();
  sampler_ = std::make_unique<sim::PeriodicTimer>(
      loop, 100 * kMillisecond, [this, dp] {
        max_table_size_ = std::max(max_table_size_, dp->table().size());
        saw_fail_safe_ = saw_fail_safe_ || dp->fail_safe();
      });
  sampler_->start();

  // Post-attack probes: pings answered through the packet-in path, and —
  // once the hostile entries have idle-expired — one fresh flow that must
  // install without tripping TableFull again.
  auto sent = std::make_shared<std::map<std::uint16_t, Timestamp>>();
  victim_host->on_echo_reply([this, sent, &loop](Ipv4Address, std::uint16_t seq) {
    auto it = sent->find(seq);
    if (it == sent->end()) return;
    record_recovery(loop.now() - it->second);
    sent->erase(it);
    probe_reply_seen_ = true;
  });
  const Ipv4Address router_ip = home.router().config().router_ip;
  for (std::uint16_t i = 0; i < 3; ++i) {
    const Timestamp at = params_.probe_at + i * 500 * kMillisecond;
    loop.schedule_at(at, [victim_host, router_ip, sent, at, i, &loop] {
      (void)loop;
      (*sent)[i] = at;
      (void)victim_host->ping(router_ip, i);
    });
  }
  const Timestamp fresh_at = config_.duration - 1500 * kMillisecond;
  homework::Forwarding* fwd = &home.router().forwarding();
  loop.schedule_at(fresh_at - 100 * kMillisecond, [this, fwd] {
    flows_installed_before_probe_ = fwd->stats().flows_installed.value();
    table_full_before_probe_ =
        router().datapath().table().stats().table_full.value();
  });
  loop.schedule_at(fresh_at, [victim_host] {
    (void)victim_host->send_udp(Ipv4Address{93, 184, 216, 99}, 42001, 8080, 64);
  });
}

void TableExhaustionScenario::drive(sim::EventLoop& loop) {
  set_attack_window(params_.attack_start, params_.attack_end);
  sim::Host* attacker_host = home().device("compromised")->host.get();
  std::uint32_t n = 0;
  for (Timestamp t = params_.attack_start; t < params_.attack_end;
       t += params_.hostile_flow_interval) {
    // Every datagram targets a fresh destination, so each one asks the
    // controller for a brand-new flow pair.
    const Ipv4Address dst{10, static_cast<std::uint8_t>(1 + (n >> 16)),
                          static_cast<std::uint8_t>(n >> 8),
                          static_cast<std::uint8_t>(n)};
    ++n;
    loop.schedule_at(t, [attacker_host, dst] {
      (void)attacker_host->send_udp(dst, 41000, 9999, 64);
    });
    record_attack();
  }
}

void TableExhaustionScenario::verify(Report& report) {
  ofp::Datapath& dp = router().datapath();
  const auto& table = dp.table().stats();
  const auto& ctl = router().controller().stats();
  expect(report, "table-full-surfaces-as-errors",
         table.table_full.value() > 0 && ctl.errors.value() > 0,
         "table_full=" + std::to_string(table.table_full.value()) +
             " controller_errors=" + std::to_string(ctl.errors.value()));
  expect(report, "capacity-never-exceeded",
         max_table_size_ > 0 && max_table_size_ <= params_.table_capacity,
         "max_observed=" + std::to_string(max_table_size_) + "/" +
             std::to_string(params_.table_capacity));
  expect(report, "failsafe-entered-and-cleared",
         saw_fail_safe_ && !dp.fail_safe(),
         std::string("entered=") + (saw_fail_safe_ ? "yes" : "no") +
             " at_end=" + (dp.fail_safe() ? "STUCK" : "clear"));
  const auto& fwd = router().forwarding().stats();
  const bool fresh_flow_clean =
      fwd.flows_installed.value() > flows_installed_before_probe_ &&
      dp.table().stats().table_full.value() == table_full_before_probe_;
  expect(report, "datapath-never-wedges",
         probe_reply_seen_ && fresh_flow_clean,
         std::string("echo=") + (probe_reply_seen_ ? "yes" : "no") +
             " post-expiry flow install clean=" +
             (fresh_flow_clean ? "yes" : "no"));
  const auto& dpstats = dp.stats();
  expect(report, "microflow-survives-churn",
         dpstats.microflow_hits.value() > 0 &&
             dpstats.microflow_invalidations.value() > 0,
         "hits=" + std::to_string(dpstats.microflow_hits.value()) +
             " invalidations=" +
             std::to_string(dpstats.microflow_invalidations.value()));
  auto* reconciler = router().reconciler();
  const bool converged =
      reconciler != nullptr &&
      reconciler->verify_converged(dp.id(), dp.table());
  expect(report, "reconcile-converges-post-attack", converged);
}

}  // namespace hw::scenario
