#include "fleet/shared.hpp"

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "homework/device_registry.hpp"
#include "homework/dhcp_server.hpp"
#include "homework/dns_proxy.hpp"
#include "homework/forwarding.hpp"
#include "nox/controller.hpp"
#include "openflow/datapath.hpp"
#include "openflow/stream_channel.hpp"
#include "policy/engine.hpp"
#include "reconcile/desired_state.hpp"
#include "reconcile/reconciler.hpp"
#include "sim/event_loop.hpp"
#include "sim/host.hpp"
#include "sim/link.hpp"
#include "util/rand.hpp"

namespace hw::fleet {
namespace {

/// Handshake settle before the per-home schedules start (matches
/// HomeworkRouter::kBootSettle so timings are comparable across modes).
constexpr Duration kBootSettle = 10 * kMillisecond;
/// Stagger between device DHCP starts inside a home: device i binds at
/// kBootSettle + (i+1) * kBindStagger in every home, so allocation order —
/// and thus the address each device gets — is identical across homes.
constexpr Duration kBindStagger = 50 * kMillisecond;
/// Traffic rounds: each bound device sends UDP to its next peer at
/// kTrafficStart + round * kTrafficPeriod.
constexpr Duration kTrafficStart = 2 * kSecond;
constexpr Duration kTrafficPeriod = 500 * kMillisecond;
constexpr int kTrafficRounds = 3;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

SharedFleetRunner::ShardOutcome SharedFleetRunner::run_shard(
    std::size_t shard, std::size_t shards) const {
  // Everything this shard builds — controller, datapaths, hosts, links —
  // registers its instruments in the shard registry.
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);
  sim::EventLoop loop;

  // One controller, one module set, one device registry for every home on
  // this shard; per-home separation rests entirely on datapath-id keying.
  homework::DeviceRegistry devices(
      homework::DeviceRegistry::AdmissionDefault::PermitAll);
  policy::PolicyEngine policy([&loop] { return loop.now(); });
  nox::Controller controller(loop, registry);
  auto dhcp_owned = std::make_unique<homework::DhcpServer>(
      homework::DhcpServer::Config{}, devices);
  homework::DhcpServer* dhcp = dhcp_owned.get();
  controller.add_component(std::move(dhcp_owned));
  controller.add_component(std::make_unique<homework::DnsProxy>(
      homework::DnsProxy::Config{}, devices, policy));
  controller.add_component(std::make_unique<homework::Forwarding>(
      homework::Forwarding::Config{}, devices, policy));

  // Goal-state mode: one reconciler per shard, converging each of the
  // shard's dpids independently against the shared DesiredStore.
  std::unique_ptr<reconcile::DesiredStore> desired;
  reconcile::Reconciler* reconciler = nullptr;
  if (config_.reconcile) {
    desired = std::make_unique<reconcile::DesiredStore>();
    auto rec = std::make_unique<reconcile::Reconciler>(*desired, registry);
    reconciler = rec.get();
    controller.add_component(std::move(rec));
    reconciler->bind_policy(policy);
    controller.set_resync_hook([reconciler](nox::DatapathId dpid, bool resync) {
      reconciler->on_datapath_ready(dpid, resync);
    });
    reconcile::DesiredStore* store = desired.get();
    dhcp->set_allocation_observer([store](nox::DatapathId dpid, MacAddress mac,
                                          std::optional<Ipv4Address> ip) {
      store->state(dpid).device(mac.to_string()).lease_ip = ip;
    });
  }
  controller.start();

  struct Device {
    std::unique_ptr<sim::Host> host;
    std::unique_ptr<sim::DuplexLink> link;
  };
  struct Home {
    std::size_t home_id = 0;
    std::uint64_t dpid = 0;
    std::unique_ptr<Rng> rng;
    std::unique_ptr<ofp::Datapath> datapath;
    std::unique_ptr<ofp::StreamConnection> conn;
    std::vector<Device> devices;
  };
  std::deque<Home> homes;

  // Roam mode schedules homes in pairs so a pair always shares one loop —
  // the re-association below must be a same-shard rewire at every thread
  // count, or the merged fingerprint would depend on sharding.
  std::vector<std::size_t> assigned;
  if (config_.roam) {
    for (std::size_t p = shard; 2 * p < config_.homes; p += shards) {
      assigned.push_back(2 * p);
      if (2 * p + 1 < config_.homes) assigned.push_back(2 * p + 1);
    }
  } else {
    for (std::size_t h = shard; h < config_.homes; h += shards) {
      assigned.push_back(h);
    }
  }

  for (const std::size_t h : assigned) {
    Home home;
    home.home_id = h;
    home.dpid = static_cast<std::uint64_t>(h) + 1;
    home.rng = std::make_unique<Rng>(profile_->home_seeds[h]);

    ofp::Datapath::Config dp_config;
    dp_config.datapath_id = home.dpid;
    home.datapath = std::make_unique<ofp::Datapath>(loop, dp_config, registry);

    ofp::StreamConnection::Config chan;
    chan.link.latency = config_.channel_latency;
    chan.link.jitter = config_.channel_jitter;
    chan.link.mtu = config_.channel_mtu;
    home.conn =
        std::make_unique<ofp::StreamConnection>(loop, chan, home.rng.get());

    for (std::size_t i = 0; i < config_.devices_per_home; ++i) {
      sim::Host::Config host_config;
      host_config.name =
          "home" + std::to_string(h) + "-dev" + std::to_string(i);
      // Deliberately the SAME MAC in every home: the registry, DHCP scopes
      // and flow rules must keep them apart by datapath id alone. The one
      // exception is the roamer (odd home, device 0), whose MAC is unique
      // per pair so cross-home leakage of its state is detectable.
      if (config_.roam && h % 2 == 1 && i == 0) {
        host_config.mac = MacAddress::from_index(
            0xaa0000u + static_cast<std::uint32_t>(h / 2));
      } else {
        host_config.mac =
            MacAddress::from_index(1 + static_cast<std::uint32_t>(i));
      }
      auto host =
          std::make_unique<sim::Host>(loop, host_config, *home.rng);
      auto link = std::make_unique<sim::DuplexLink>(
          loop, sim::LinkChannel::Config{}, home.rng.get());
      const auto port = static_cast<std::uint16_t>(2 + i);  // 1 = uplink
      home.datapath->add_port(port, "port" + std::to_string(port),
                              MacAddress::from_index(0xfff000u + port),
                              &link->b_to_a());
      link->b_to_a().connect(host.get());
      link->a_to_b().connect(home.datapath->ingress(port));
      host->attach_uplink(&link->a_to_b());
      home.devices.push_back({std::move(host), std::move(link)});
    }

    home.datapath->connect(home.conn->datapath_end());
    controller.connect_datapath(home.conn->controller_end());
    homes.push_back(std::move(home));
  }

  // Per-home schedules (identical across homes, all in virtual time).
  for (Home& home : homes) {
    for (std::size_t i = 0; i < home.devices.size(); ++i) {
      sim::Host* host = home.devices[i].host.get();
      loop.schedule_at(
          kBootSettle + static_cast<Duration>(i + 1) * kBindStagger,
          [host] { host->start_dhcp(); });
    }
    if (config_.traffic && home.devices.size() >= 2) {
      const std::size_t n = home.devices.size();
      for (std::size_t i = 0; i < n; ++i) {
        sim::Host* host = home.devices[i].host.get();
        // The DHCP pool starts at .100 and binds happen in device order, so
        // device k holds 192.168.1.(100+k) — in every home at once; the
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
  }

  // Divergence workload: odd homes cold-restart mid-run — the restart drops
  // the table and re-handshakes, so their re-sync must rebuild everything.
  // Even homes get an admin-triggered re-sync with their table fully intact
  // — zero actual divergence, the case where a delta-based re-sync sends
  // nothing while a blind replay re-sends every module flow.
  if (config_.restart_odd_homes) {
    for (Home& home : homes) {
      if (home.home_id % 2 == 1) {
        ofp::Datapath* dp = home.datapath.get();
        loop.schedule_at(config_.restart_at, [dp] { dp->restart(); });
      } else {
        const nox::DatapathId dpid = home.dpid;
        loop.schedule_at(config_.restart_at, [&controller, dpid] {
          controller.resync_datapath(dpid);
        });
      }
    }
  }

  // Roaming re-association: the odd home's roamer walks next door. Detach
  // from the odd datapath, attach on a fresh port of the paired even
  // datapath, re-DHCP behind the new dpid, then talk to a local peer there.
  std::map<std::size_t, Duration> rebind_by_home;
  if (config_.roam) {
    for (Home& odd : homes) {
      if (odd.home_id % 2 != 1 || odd.devices.empty()) continue;
      Home* even = nullptr;
      for (Home& cand : homes) {
        if (cand.home_id == odd.home_id - 1) even = &cand;
      }
      if (even == nullptr) continue;  // unpaired trailing home
      sim::Host* roamer = odd.devices[0].host.get();
      sim::DuplexLink* link = odd.devices[0].link.get();
      ofp::Datapath* from = odd.datapath.get();
      ofp::Datapath* to = even->datapath.get();
      const auto old_port = static_cast<std::uint16_t>(2);
      const auto new_port =
          static_cast<std::uint16_t>(2 + config_.devices_per_home);
      const std::size_t dst_home = even->home_id;
      loop.schedule_at(config_.roam_at, [this, roamer, link, from, to,
                                         old_port, new_port, dst_home,
                                         &rebind_by_home, &loop] {
        from->remove_port(old_port);
        to->add_port(new_port, "roam" + std::to_string(new_port),
                     MacAddress::from_index(0xfff000u + new_port),
                     &link->b_to_a());
        link->a_to_b().connect(to->ingress(new_port));
        roamer->on_bound([this, dst_home, &rebind_by_home, &loop] {
          if (rebind_by_home.count(dst_home) != 0) return;
          rebind_by_home[dst_home] = loop.now() - config_.roam_at;
        });
        roamer->start_dhcp();
      });
      if (config_.traffic) {
        // Post-roam round: the roamer reaches the destination home's own
        // device 0 (192.168.1.100 *behind the even dpid*), proving its
        // flows now live in the new home's table.
        const Ipv4Address peer{192, 168, 1, 100};
        loop.schedule_at(config_.roam_at + kSecond, [roamer, peer] {
          (void)roamer->send_udp(peer, 41000, 7777, 64);
        });
      }
    }
  }

  loop.run_until(config_.duration);

  ShardOutcome out;
  for (const Home& home : homes) {
    SharedHomeStatus status;
    status.home_id = home.home_id;
    status.dpid = home.dpid;
    status.shard = shard;
    status.devices = home.devices.size();
    for (const Device& dev : home.devices) {
      if (dev.host->ip()) ++status.devices_bound;
    }
    status.all_bound = status.devices_bound == status.devices;
    status.flow_entries = home.datapath->table().size();
    if (const auto it = rebind_by_home.find(home.home_id);
        it != rebind_by_home.end()) {
      status.roam_rebind_us = it->second;
    }
    if (reconciler != nullptr) {
      status.converged =
          reconciler->verify_converged(home.dpid, home.datapath->table());
    }
    if (config_.collect_state) {
      home.datapath->table().for_each([&](const ofp::FlowEntry& e) {
        char cookie[20];
        std::snprintf(cookie, sizeof cookie, "%016llx",
                      static_cast<unsigned long long>(e.cookie));
        status.flow_rows.push_back(e.match.to_string() + "|" +
                                   std::to_string(e.priority) + "|" +
                                   ofp::to_string(e.actions) + "|" + cookie);
      });
      std::sort(status.flow_rows.begin(), status.flow_rows.end());
      for (const auto* rec : devices.all(home.dpid)) {
        if (!rec->lease) continue;
        status.leases.push_back(rec->mac.to_string() + "|" +
                                rec->lease->ip.to_string());
      }
      std::sort(status.leases.begin(), status.leases.end());
    }
    out.homes.push_back(status);
  }
  out.scalars = registry.scalars();
  out.histograms = registry.histogram_states();
  return out;
}

SharedFleetResult SharedFleetRunner::run() const {
  const auto start = std::chrono::steady_clock::now();
  std::size_t shards =
      config_.threads == 0 ? std::thread::hardware_concurrency()
                           : config_.threads;
  shards = std::max<std::size_t>(
      1, std::min(shards, std::max<std::size_t>(config_.homes, 1)));

  std::vector<ShardOutcome> outcomes(shards);
  if (shards == 1) {
    outcomes[0] = run_shard(0, 1);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      pool.emplace_back(
          [this, s, shards, &outcomes] { outcomes[s] = run_shard(s, shards); });
    }
    for (std::thread& t : pool) t.join();
  }

  SharedFleetResult result;
  result.shards_used = shards;
  // Merge in shard order. Every scalar is a sum of integer-valued per-home
  // contributions (or of per-home gauges like flow-table sizes), and integer
  // sums in doubles are exact, so the totals do not depend on how homes were
  // sharded — the same property LiveFleet's home-id-order merge provides.
  for (const ShardOutcome& out : outcomes) {
    for (const auto& [name, value] : out.scalars) {
      result.scalar_totals[name] += value;
    }
    for (const auto& [name, state] : out.histograms) {
      result.histograms[name].merge(state);
    }
    result.homes.insert(result.homes.end(), out.homes.begin(),
                        out.homes.end());
  }
  std::sort(result.homes.begin(), result.homes.end(),
            [](const SharedHomeStatus& a, const SharedHomeStatus& b) {
              return a.home_id < b.home_id;
            });
  for (const SharedHomeStatus& home : result.homes) {
    if (home.ok()) ++result.homes_ok;
  }
  result.wall_ms = wall_ms_since(start);
  return result;
}

}  // namespace hw::fleet
