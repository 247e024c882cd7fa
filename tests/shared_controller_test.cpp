// One HomeworkRouter serving a street of homes: N home datapaths over framed
// stream channels into one controller, with per-dpid state keeping homes that
// reuse identical MACs and RFC1918 addresses fully isolated.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "net/packet.hpp"
#include "sim/host.hpp"

namespace hw::homework {
namespace {

constexpr std::size_t kDevicesPerHome = 2;

/// Per-home state at the end of a run.
struct HomeStatus {
  std::size_t devices_bound = 0;
  std::size_t flow_entries = 0;
  bool converged = true;  // always true in Replay mode
  /// Sorted "match|priority|actions|cookie" rows and "mac|ip" leases.
  std::vector<std::string> flow_rows;
  std::vector<std::string> leases;
};

/// A street of `homes` homes on one router. Every home attaches two devices
/// with the SAME MACs, which bind in device order and so hold the SAME
/// 192.168.1.x leases; only dpid keying keeps the controller's registry,
/// DHCP scopes and flow rules apart. Each bound device then sends UDP to its
/// neighbour at 2.0, 2.5 and 3.0 s, driving proxy-ARP and flow setup.
struct Street {
  explicit Street(std::size_t homes, HomeworkRouter::Config config = {})
      : scope(registry),
        rng(2011),
        router(loop, rng, permit_all(config), registry) {
    for (std::size_t h = 0; h < homes; ++h) {
      const nox::DatapathId dpid =
          h == 0 ? router.datapath().id() : router.add_home();
      dpids.push_back(dpid);
      for (std::size_t i = 0; i < kDevicesPerHome; ++i) {
        sim::Host& host = add_device(
            dpid, MacAddress::from_index(1 + static_cast<std::uint32_t>(i)));
        sim::Host* dev = &host;
        loop.schedule_at(HomeworkRouter::kBootSettle +
                             static_cast<Duration>(i + 1) * 50 * kMillisecond,
                         [dev] { dev->start_dhcp(); });
        const Ipv4Address peer{
            192, 168, 1,
            static_cast<std::uint8_t>(100 + (i + 1) % kDevicesPerHome)};
        for (int round = 0; round < 3; ++round) {
          loop.schedule_at(2 * kSecond + round * 500 * kMillisecond,
                           [dev, peer] {
                             (void)dev->send_udp(peer, 40000, 7777, 64);
                           });
        }
      }
    }
    router.start();
  }

  static HomeworkRouter::Config permit_all(HomeworkRouter::Config config) {
    config.admission = DeviceRegistry::AdmissionDefault::PermitAll;
    return config;
  }

  sim::Host& add_device(nox::DatapathId dpid, MacAddress mac) {
    sim::Host::Config hc;
    hc.name = "dev" + std::to_string(hosts.size());
    hc.mac = mac;
    hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    attachments.push_back(
        router.attach_device(*hosts.back(), std::nullopt, {}, dpid));
    return *hosts.back();
  }

  /// Divergence workload: odd homes cold-restart (the table is wiped) and
  /// even homes get an admin re-sync over their intact table.
  void restart_odd_homes(Timestamp at) {
    for (std::size_t h = 0; h < dpids.size(); ++h) {
      const nox::DatapathId dpid = dpids[h];
      if (h % 2 == 1) {
        ofp::Datapath* dp = router.find_datapath(dpid);
        loop.schedule_at(at, [dp] { dp->restart(); });
      } else {
        loop.schedule_at(at, [this, dpid] {
          router.controller().resync_datapath(dpid);
        });
      }
    }
  }

  [[nodiscard]] HomeStatus status(std::size_t h) {
    HomeStatus s;
    const nox::DatapathId dpid = dpids[h];
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      if (attachments[i].dpid == dpid && hosts[i]->ip()) ++s.devices_bound;
    }
    const ofp::FlowTable& table = router.find_datapath(dpid)->table();
    s.flow_entries = table.size();
    if (router.reconciler() != nullptr) {
      s.converged = router.reconciler()->verify_converged(dpid, table);
    }
    table.for_each([&](const ofp::FlowEntry& e) {
      char cookie[20];
      std::snprintf(cookie, sizeof cookie, "%016llx",
                    static_cast<unsigned long long>(e.cookie));
      s.flow_rows.push_back(e.match.to_string() + "|" +
                            std::to_string(e.priority) + "|" +
                            ofp::to_string(e.actions) + "|" + cookie);
    });
    std::sort(s.flow_rows.begin(), s.flow_rows.end());
    for (const auto* rec : router.registry().all(dpid)) {
      if (rec->lease) {
        s.leases.push_back(rec->mac.to_string() + "|" +
                           rec->lease->ip.to_string());
      }
    }
    std::sort(s.leases.begin(), s.leases.end());
    return s;
  }

  [[nodiscard]] std::size_t homes_ok() {
    std::size_t ok = 0;
    for (std::size_t h = 0; h < dpids.size(); ++h) {
      const HomeStatus s = status(h);
      if (s.devices_bound == kDevicesPerHome && s.converged) ++ok;
    }
    return ok;
  }

  [[nodiscard]] double scalar(const std::string& name) const {
    return registry.scalars().at(name);
  }

  /// One REST request to the router's control API.
  HttpResponse call(const std::string& method, const std::string& path,
                    const std::string& body = {}) {
    HttpRequest req;
    req.method = method;
    req.path = path;
    req.body = body;
    return router.control_api().handle(req);
  }

  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scope;
  sim::EventLoop loop;
  Rng rng;
  HomeworkRouter router;
  std::vector<nox::DatapathId> dpids;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<HomeworkRouter::Attachment> attachments;
};

TEST(SharedController, HomesBindAndInstallFlowsThroughOneController) {
  Street street(8);
  street.loop.run_until(4 * kSecond);

  EXPECT_EQ(street.homes_ok(), 8u) << "every home must fully bind";
  for (std::size_t h = 0; h < 8; ++h) {
    EXPECT_EQ(street.dpids[h], street.router.datapath().id() + h);
    const HomeStatus home = street.status(h);
    EXPECT_EQ(home.devices_bound, 2u) << "home " << h;
    EXPECT_GT(home.flow_entries, 0u) << "home " << h;
  }

  // The shared controller saw every home's DHCP exchange, installed per-home
  // forwarding rules, and all of it travelled through the stream framer.
  EXPECT_EQ(street.scalar("homework.dhcp.acks"), 16.0);
  EXPECT_GT(street.scalar("homework.forwarding.flows_installed"), 0.0);
  EXPECT_GT(street.scalar("openflow.channel.rx_messages"), 0.0);
  EXPECT_GT(street.scalar("openflow.channel.frames_ok"), 0.0);
  EXPECT_EQ(street.scalar("openflow.channel.frames_bad"), 0.0);
}

TEST(SharedController, IdenticalAddressesInEveryHomeStayIsolated) {
  // Identical MACs and leases in every home: if any layer still assumed a
  // single home, binds or flow installs would go missing in some of them.
  Street street(4);
  street.loop.run_until(4 * kSecond);

  EXPECT_EQ(street.homes_ok(), 4u);
  const std::size_t first = street.status(0).flow_entries;
  for (std::size_t h = 0; h < 4; ++h) {
    const HomeStatus home = street.status(h);
    EXPECT_EQ(home.leases, street.status(0).leases) << "home " << h;
    EXPECT_EQ(home.flow_entries, first)
        << "home " << h << " diverged from its identical twins";
    EXPECT_GT(home.flow_entries, 3u)
        << "home " << h
        << " holds only the module table setup, no traffic rules";
  }
}

TEST(SharedController, RestartedHomesReconcileToConvergence) {
  // Every odd home cold-restarts mid-run and rejoins through a reconcile
  // round; every even home gets an admin re-sync over its intact table.
  Street street(8);
  street.restart_odd_homes(3200 * kMillisecond);
  street.loop.run_until(5 * kSecond);

  EXPECT_EQ(street.homes_ok(), 8u);
  for (std::size_t h = 0; h < 8; ++h) {
    EXPECT_TRUE(street.status(h).converged) << "home " << h;
  }
  // The reconciler really drove the recovery: join rounds for all 8 homes,
  // a rebuild round per restarted odd home (service flows re-added as
  // deltas) and a converged zero-delta round per admin-resynced even home.
  EXPECT_GE(street.scalar("reconcile.rounds"), 16.0);
  EXPECT_GT(street.scalar("reconcile.deltas_added"), 0.0);
  EXPECT_GE(street.scalar("reconcile.converged_rounds"), 4.0);
}

TEST(SharedController, ReplayAndReconcileFleetsConvergeToIdenticalState) {
  // Differential: the same street, same seed, same odd-home restarts, run
  // once with replay-resync and once with the reconciler. Final flow tables
  // (rows, priorities, actions, cookies) and leases must be identical in
  // every home.
  HomeworkRouter::Config replay_config;
  replay_config.resync = HomeworkRouter::Config::Resync::Replay;
  Street replay(4, replay_config);
  replay.restart_odd_homes(3200 * kMillisecond);
  replay.loop.run_until(5 * kSecond);
  Street reconcile(4);
  reconcile.restart_odd_homes(3200 * kMillisecond);
  reconcile.loop.run_until(5 * kSecond);

  EXPECT_EQ(replay.homes_ok(), 4u);
  EXPECT_EQ(reconcile.homes_ok(), 4u);
  for (std::size_t h = 0; h < 4; ++h) {
    const HomeStatus a = replay.status(h);
    const HomeStatus b = reconcile.status(h);
    EXPECT_EQ(a.flow_rows, b.flow_rows)
        << "home " << h << " flow tables diverged between resync strategies";
    EXPECT_EQ(a.leases, b.leases) << "home " << h;
    EXPECT_FALSE(b.leases.empty()) << "home " << h;
  }
  // Both recover the restarted homes, the reconciler with strictly fewer
  // re-sent flows (the even homes' tables survive and need zero deltas).
  EXPECT_LT(reconcile.scalar("nox.channel.resynced_flows"),
            replay.scalar("nox.channel.resynced_flows"));
}

TEST(SharedController, FramedChannelsReassembleUnderTinyMtu) {
  // A 5-byte read ceiling means no OpenFlow message ever arrives whole; the
  // framers must reassemble every handshake and packet-in from partials.
  HomeworkRouter::Config config;
  config.channel_mtu = 5;
  Street street(2, config);
  street.loop.run_until(4 * kSecond);

  EXPECT_EQ(street.homes_ok(), 2u);
  EXPECT_GT(street.scalar("openflow.channel.frames_partial"), 0.0);
  EXPECT_EQ(street.scalar("openflow.channel.frames_bad"), 0.0);
}

TEST(SharedController, RateCapLandsOnTheCappedDevicesDatapath) {
  // A device with its own MAC behind the second home gets a bandwidth cap.
  // Its policing queue and enqueue actions belong on that home's datapath;
  // the first home's datapath must gain no queue.
  Street street(2);
  const nox::DatapathId second = street.dpids[1];
  sim::Host& capped = street.add_device(second, MacAddress::from_index(0xcc));
  const std::uint16_t capped_port = street.attachments.back().port;
  street.loop.run_until(kSecond);
  capped.start_dhcp();
  street.loop.run_for(kSecond);
  ASSERT_TRUE(capped.ip().has_value());

  policy::PolicyDocument cap;
  cap.id = "cap";
  cap.who.macs = {capped.mac().to_string()};
  cap.rate_limit_bps = 80'000;
  street.router.policy().install(std::move(cap));
  for (int i = 0; i < 20; ++i) {
    (void)capped.send_udp(Ipv4Address{192, 168, 1, 100}, 5000, 9999, 500);
    street.loop.run_for(50 * kMillisecond);
  }
  street.loop.run_for(kSecond);

  const std::uint32_t queue_id = capped.ip()->value() & 0xffff;
  const auto enqueues_on = [queue_id](const ofp::Datapath& dp) {
    std::size_t n = 0;
    dp.table().for_each([&](const ofp::FlowEntry& e) {
      for (const ofp::Action& a : e.actions) {
        const auto* enq = std::get_if<ofp::ActionEnqueue>(&a);
        if (enq != nullptr && enq->queue_id == queue_id) ++n;
      }
    });
    return n;
  };
  const ofp::Datapath& home2 = *street.router.find_datapath(second);
  ofp::Datapath& home1 = street.router.datapath();
  EXPECT_GT(street.router.forwarding().stats().rate_limited_flows.value(), 0u);
  EXPECT_GT(enqueues_on(home2), 0u);
  EXPECT_NE(home2.queue_counters(capped_port, queue_id), nullptr);
  EXPECT_EQ(enqueues_on(home1), 0u);
  for (std::uint16_t port = 1; port <= capped_port; ++port) {
    EXPECT_EQ(home1.queue_counters(port, queue_id), nullptr) << "port " << port;
  }
}

/// Bytes of the flows the event export accounts: exact IPv4 source and
/// destination, forwarded to a real port (service and drop rules excluded).
std::int64_t forwarded_bytes(const ofp::FlowTable& table) {
  std::int64_t bytes = 0;
  table.for_each([&](const ofp::FlowEntry& e) {
    if (e.match.nw_src_ignored_bits() > 0 ||
        e.match.nw_dst_ignored_bits() > 0 ||
        e.match.dl_type != static_cast<std::uint16_t>(net::EtherType::Ipv4)) {
      return;
    }
    for (const ofp::Action& a : e.actions) {
      const auto* out = std::get_if<ofp::ActionOutput>(&a);
      if (out != nullptr && out->port < ofp::port_no(ofp::Port::Max)) {
        bytes += static_cast<std::int64_t>(e.byte_count);
        return;
      }
    }
  });
  return bytes;
}

TEST(SharedController, IdenticalHomesExportBothHomesFlowBytes) {
  // Both homes carry the very same flows (same MACs, addresses and ports).
  // Each home's counters are diffed against that home's previous poll, so
  // the Flows table accounts every byte of both tables.
  Street street(2);
  street.loop.run_until(4500 * kMillisecond);

  std::int64_t table_bytes = 0;
  for (const nox::DatapathId dpid : street.dpids) {
    const std::int64_t home =
        forwarded_bytes(street.router.find_datapath(dpid)->table());
    EXPECT_GT(home, 0) << "dpid " << dpid;
    table_bytes += home;
  }
  auto rs = street.router.db().query("SELECT sum(bytes) FROM Flows");
  ASSERT_TRUE(rs.ok()) << rs.error().message;
  ASSERT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_int(), table_bytes);
}

TEST(SharedController, EachResyncedDatapathGetsOneFlowStatsRequestPerPoll) {
  // Every resync re-announces a datapath's join to the modules. The first
  // home (the one whose channel the router exposes) gets an admin re-sync
  // and then a cold restart; the export must still poll it once a second.
  Street street(4);
  street.restart_odd_homes(3200 * kMillisecond);
  street.loop.schedule_at(3700 * kMillisecond,
                          [&street] { street.router.datapath().restart(); });
  std::size_t requests = 0;
  street.router.connection().datapath_end().set_tap(
      [&requests](const Bytes& m) {
        auto env = ofp::decode(m);
        if (!env.ok()) return;
        const auto* req = std::get_if<ofp::StatsRequest>(&env.value().msg);
        if (req != nullptr && req->type == ofp::StatsType::Flow) ++requests;
      });
  street.loop.run_until(4500 * kMillisecond);
  requests = 0;
  street.loop.run_until(7500 * kMillisecond);  // polls at 5, 6 and 7 s

  EXPECT_EQ(requests, 3u);
  EXPECT_EQ(street.homes_ok(), 4u);
}

TEST(SharedController, RestTagRestrictsOnlyThatHomesDevice) {
  // Every home holds a device with MAC 1. A REST tag names no home, so it
  // lands on the first home's device; a policy on that tag must restrict
  // that device alone, in forwarding admission and in desired state.
  Street street(2);
  street.loop.run_until(1500 * kMillisecond);  // bound, no traffic yet
  const MacAddress kid = MacAddress::from_index(1);
  ASSERT_EQ(street.call("PUT", "/api/devices/" + kid.to_string() + "/metadata",
                        R"({"tags": ["kids"]})")
                .status,
            200);
  ASSERT_EQ(street.call("POST", "/api/policies",
                        R"({"id": "kids-offline", "who": {"tags": ["kids"]},
                            "block_network": true})")
                .status,
            201);

  // Device 0 and device 1 of each home send each other three datagrams.
  std::vector<int> received(street.hosts.size(), 0);
  for (std::size_t i = 0; i < street.hosts.size(); ++i) {
    street.hosts[i]->on_udp(7777, [&received, i](const net::ParsedPacket&) {
      ++received[i];
    });
  }
  street.loop.run_until(4 * kSecond);

  const nox::DatapathId first = street.dpids[0];
  const nox::DatapathId second = street.dpids[1];
  EXPECT_EQ(street.attachments[0].dpid, first);
  EXPECT_EQ(street.attachments[2].dpid, second);
  EXPECT_EQ(received[0], 0) << "traffic reached the tagged device";
  EXPECT_EQ(received[1], 0) << "the tagged device's traffic was forwarded";
  EXPECT_EQ(received[2], 3) << "the second home's twin was restricted";
  EXPECT_EQ(received[3], 3) << "the second home's twin was restricted";

  const std::string block = "policy:block:src:" + kid.to_string();
  reconcile::DesiredStore& desired = *street.router.desired_store();
  EXPECT_EQ(desired.state(first).flows.count(block), 1u);
  EXPECT_EQ(desired.state(second).flows.count(block), 0u);
  EXPECT_EQ(street.router.policy().tags_of(first, kid),
            std::vector<std::string>{"kids"});
  EXPECT_TRUE(street.router.policy().tags_of(second, kid).empty());
}

TEST(SharedController, RestPermitActsOnTheHomeHoldingTheMac) {
  // A MAC held only behind the second home: a REST permit names no home,
  // so it must resolve to that home rather than the first.
  Street street(2);
  const nox::DatapathId first = street.dpids[0];
  const nox::DatapathId second = street.dpids[1];
  sim::Host& guest = street.add_device(second, MacAddress::from_index(0xcc));
  street.loop.run_until(kSecond);
  street.router.registry().set_state(second, guest.mac(), DeviceState::Denied,
                                     street.loop.now());
  guest.start_dhcp();
  street.loop.run_for(kSecond);
  ASSERT_FALSE(guest.ip().has_value());

  const std::string mac_text = guest.mac().to_string();
  const auto resp = street.call("POST", "/api/devices/" + mac_text + "/permit");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.json_body().value()["state"].as_string(), "permitted");
  const DeviceRecord* rec = street.router.registry().find(second, guest.mac());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, DeviceState::Permitted);
  EXPECT_EQ(street.router.registry().find(first, guest.mac()), nullptr);
  reconcile::DesiredStore& desired = *street.router.desired_store();
  EXPECT_EQ(desired.state(second).devices.at(mac_text).admission,
            reconcile::DeviceIntent::Admission::Permitted);
  EXPECT_EQ(desired.state(first).devices.count(mac_text), 0u);

  guest.start_dhcp();
  street.loop.run_for(2 * kSecond);
  EXPECT_TRUE(guest.ip().has_value());
}

}  // namespace
}  // namespace hw::homework
