#include "scenario/roaming.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "sim/fault_injector.hpp"
#include "sim/host.hpp"

namespace hw::scenario {
namespace {

/// Stagger between device DHCP starts inside a home: device i binds at
/// kBootSettle + (i+1) * kBindStagger in every home, so allocation order —
/// and thus the address each device gets — is identical across homes.
constexpr Duration kBindStagger = 50 * kMillisecond;
/// Traffic rounds: each bound device sends UDP to its next peer at
/// kTrafficStart + round * kTrafficPeriod.
constexpr Duration kTrafficStart = 2 * kSecond;
constexpr Duration kTrafficPeriod = 500 * kMillisecond;
constexpr int kTrafficRounds = 3;

/// The roamer of pair p: unique per pair, so a leak of its state into any
/// other home is detectable.
MacAddress roamer_mac(std::size_t pair) {
  return MacAddress::from_index(0xaa0000u + static_cast<std::uint32_t>(pair));
}

}  // namespace

struct RoamingScenario::World {
  struct Home {
    nox::DatapathId dpid = 0;
    std::vector<std::unique_ptr<sim::Host>> devices;
    std::vector<homework::HomeworkRouter::Attachment> attachments;
  };

  World(std::uint64_t seed, const homework::HomeworkRouter::Config& config)
      : rng(seed), router(loop, rng, config) {}

  sim::EventLoop loop;
  Rng rng;
  homework::HomeworkRouter router;
  std::vector<Home> homes;
  /// Rebind latency of each destination home's roamer.
  std::map<nox::DatapathId, Duration> rebind_by_dpid;
  std::unique_ptr<sim::FaultInjector> faults;
};

RoamingScenario::RoamingScenario(Config config, Params params)
    : Scenario("roaming", config), params_(params) {}

RoamingScenario::~RoamingScenario() = default;

Report RoamingScenario::run() {
  count_run();
  set_attack_window(params_.roam_at, config_.duration);

  homework::HomeworkRouter::Config router_config;
  router_config.admission =
      homework::DeviceRegistry::AdmissionDefault::PermitAll;
  world_.reset();  // a re-run starts from an empty world
  world_ = std::make_unique<World>(config_.seed, router_config);
  sim::EventLoop& loop = world_->loop;
  Rng& rng = world_->rng;
  homework::HomeworkRouter& router = world_->router;
  using Home = World::Home;
  std::vector<Home>& homes = world_->homes;
  homes.resize(params_.homes);
  for (std::size_t h = 0; h < homes.size(); ++h) {
    Home& home = homes[h];
    home.dpid = h == 0 ? router.datapath().id() : router.add_home();
    for (std::size_t i = 0; i < params_.devices_per_home; ++i) {
      sim::Host::Config host_config;
      host_config.name =
          "home" + std::to_string(h) + "-dev" + std::to_string(i);
      // Deliberately the SAME MAC in every home: the registry, DHCP scopes
      // and flow rules must keep them apart by datapath id alone. The one
      // exception is the roamer (odd home, device 0).
      host_config.mac = h % 2 == 1 && i == 0
                            ? roamer_mac(h / 2)
                            : MacAddress::from_index(
                                  1 + static_cast<std::uint32_t>(i));
      home.devices.push_back(
          std::make_unique<sim::Host>(loop, host_config, rng));
      home.attachments.push_back(router.attach_device(
          *home.devices.back(), std::nullopt, {}, home.dpid));
    }
  }
  router.start();
  // The chaos plan acts on the first home's controller channel and
  // datapath, and on every device link registered here.
  if (config_.faults) {
    world_->faults = std::make_unique<sim::FaultInjector>(loop);
    sim::FaultInjector& faults = *world_->faults;
    router.attach_faults(faults);
    for (const Home& home : homes) {
      for (std::size_t i = 0; i < home.devices.size(); ++i) {
        faults.add_link(home.devices[i]->name(), *home.attachments[i].link);
      }
    }
    faults.arm(*config_.faults);
  }

  // Per-home schedules, identical across homes, all in virtual time.
  for (Home& home : homes) {
    const std::size_t n = home.devices.size();
    for (std::size_t i = 0; i < n; ++i) {
      sim::Host* host = home.devices[i].get();
      loop.schedule_at(homework::HomeworkRouter::kBootSettle +
                           static_cast<Duration>(i + 1) * kBindStagger,
                       [host] { host->start_dhcp(); });
      if (n < 2) continue;
      // The DHCP pool starts at .100 and binds happen in device order, so
      // device k holds 192.168.1.(100+k) in every home at once; the
      // controller must tell the copies apart by dpid.
      const Ipv4Address peer{
          192, 168, 1, static_cast<std::uint8_t>(100 + (i + 1) % n)};
      const auto sport = static_cast<std::uint16_t>(40000 + i);
      for (int round = 0; round < kTrafficRounds; ++round) {
        loop.schedule_at(
            kTrafficStart + static_cast<Duration>(round) * kTrafficPeriod,
            [host, peer, sport] {
              (void)host->send_udp(peer, sport, 7777, 64);
            });
      }
    }
  }

  // The odd home's roamer walks next door: detach from the odd datapath,
  // attach on a fresh port of the paired even datapath, re-DHCP behind the
  // new dpid, then talk to the destination's own device 0 (192.168.1.100
  // behind the even dpid), proving its flows now live in the new home.
  auto& rebind_by_dpid = world_->rebind_by_dpid;
  for (std::size_t odd = 1; odd < homes.size(); odd += 2) {
    if (homes[odd].devices.empty()) continue;
    sim::Host* roamer = homes[odd].devices[0].get();
    const homework::HomeworkRouter::Attachment from = homes[odd].attachments[0];
    const nox::DatapathId to = homes[odd - 1].dpid;
    loop.schedule_at(params_.roam_at, [this, &router, &loop, &rebind_by_dpid,
                                       roamer, from, to] {
      router.detach_device(from, roamer->mac());
      (void)router.attach_device(*roamer, std::nullopt, {}, to);
      roamer->on_bound([this, &loop, &rebind_by_dpid, to] {
        rebind_by_dpid.try_emplace(to, loop.now() - params_.roam_at);
      });
      roamer->start_dhcp();
    });
    loop.schedule_at(params_.roam_at + kSecond, [roamer] {
      (void)roamer->send_udp(Ipv4Address{192, 168, 1, 100}, 41000, 7777, 64);
    });
  }
  record_attack(homes.size() / 2);  // one re-association per pair

  loop.run_until(config_.duration);

  // Each home's "mac|ip" leases, as the controller's registry holds them.
  std::vector<std::vector<std::string>> leases(homes.size());
  for (std::size_t h = 0; h < homes.size(); ++h) {
    for (const auto* rec : router.registry().all(homes[h].dpid)) {
      if (rec->lease) {
        leases[h].push_back(rec->mac.to_string() + "|" +
                            rec->lease->ip.to_string());
      }
    }
  }
  const auto lease_row = [](MacAddress mac, std::size_t last) {
    return mac.to_string() + "|192.168.1." + std::to_string(last);
  };
  const auto has = [](const std::vector<std::string>& rows,
                      const std::string& row) {
    return std::find(rows.begin(), rows.end(), row) != rows.end();
  };

  bool rebound = true, origin_kept = true, no_leak = true, all_ok = true;
  std::string rebound_detail, leak_detail;
  for (std::size_t h = 0; h < homes.size(); ++h) {
    const Home& home = homes[h];
    for (const auto& device : home.devices) all_ok = all_ok && device->ip();
    all_ok = all_ok && router.reconciler()->verify_converged(
                           home.dpid, router.find_datapath(home.dpid)->table());
    const std::size_t pair = h / 2;
    if (pair * 2 + 1 >= homes.size()) continue;  // unpaired trailing home
    const MacAddress roamer = roamer_mac(pair);
    if (h % 2 == 0) {
      // Destination: granted the roamer a lease from its own scope (its
      // native devices hold .100, .101, ...) and measured the rebind.
      const auto it = rebind_by_dpid.find(home.dpid);
      if (it == rebind_by_dpid.end() ||
          !has(leases[h], lease_row(roamer, 100 + params_.devices_per_home))) {
        rebound = false;
        rebound_detail += "home" + std::to_string(h) + "; ";
      } else {
        record_recovery(it->second);
      }
    } else {
      // Origin: the roamer's sticky allocation stays behind the odd dpid.
      origin_kept = origin_kept && has(leases[h], lease_row(roamer, 100));
    }
    // The pair's roamer MAC must never appear under any other dpid.
    for (std::size_t other = 0; other < homes.size(); ++other) {
      if (other / 2 == pair) continue;
      for (const auto& lease : leases[other]) {
        if (lease.rfind(roamer.to_string() + "|", 0) == 0) {
          no_leak = false;
          leak_detail +=
              roamer.to_string() + " in home" + std::to_string(other) + "; ";
        }
      }
    }
  }

  Report report = make_report();
  expect(report, "roamer-rebinds-at-destination", rebound, rebound_detail);
  expect(report, "origin-home-state-untouched", origin_kept);
  expect(report, "roamer-mac-never-leaks-across-pairs", no_leak, leak_detail);
  expect(report, "all-homes-bound-and-converged", all_ok);
  return report;
}

}  // namespace hw::scenario
