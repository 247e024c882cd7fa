// End-to-end integration: the full Figure 5 stack exercised through the
// scenarios the paper demos — admission (Fig 3), measurement (Fig 1),
// ambient display (Fig 2), and USB-mediated policy (Fig 4) — plus the
// architectural invariants (isolation, visibility of all flows).
#include <cstdio>

#include "router_fixture.hpp"
#include "sim/pcap.hpp"
#include "ui/policy_editor.hpp"

namespace hw::homework {
namespace {

using testing::RouterFixture;

struct IntegrationFixture : RouterFixture {
  std::optional<Ipv4Address> resolve(sim::Host& host, const std::string& name) {
    std::optional<Ipv4Address> out;
    host.resolve(name, [&](Result<Ipv4Address> r, const std::string&) {
      if (r.ok()) out = r.value();
    });
    loop.run_for(3 * kSecond);
    return out;
  }

  bool ping(sim::Host& host, Ipv4Address dst) {
    bool replied = false;
    host.on_echo_reply([&](Ipv4Address from, std::uint16_t) {
      if (from == dst) replied = true;
    });
    host.ping(dst, 1);
    loop.run_for(2 * kSecond);
    return replied;
  }
};

TEST_F(IntegrationFixture, Figure3AdmissionLifecycle) {
  // A new device appears → pending; the user permits it via the REST API →
  // it leases and can reach the Internet; the user denies it → it loses
  // access on the next DHCP exchange and its flows are revoked.
  sim::Host& host = make_device("laptop");
  host.start_dhcp();
  loop.run_for(3 * kSecond);
  EXPECT_FALSE(host.ip().has_value());

  HttpRequest permit;
  permit.method = "POST";
  permit.path = "/api/devices/" + host.mac().to_string() + "/permit";
  EXPECT_EQ(router.control_api().handle(permit).status, 200);
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(host.ip().has_value());

  const auto web = resolve(host, "www.example.com");
  ASSERT_TRUE(web.has_value());
  EXPECT_TRUE(ping(host, *web));

  HttpRequest deny;
  deny.method = "POST";
  deny.path = "/api/devices/" + host.mac().to_string() + "/deny";
  EXPECT_EQ(router.control_api().handle(deny).status, 200);
  loop.run_for(kSecond);
  EXPECT_FALSE(ping(host, *web));
}

TEST_F(IntegrationFixture, AllTrafficVisibleInMeasurementPlane) {
  // Paper §2: the DHCP design "ensures that all traffic flows are visible to
  // software running on the router". Every flow a device creates must
  // surface as Flows rows attributed to it.
  sim::Host& a = admitted_device("a");
  sim::Host& b = admitted_device("b");
  const auto web = resolve(a, "www.example.com");
  ASSERT_TRUE(web.has_value());

  // Upstream flow, and a device-to-device flow (router mediated).
  for (int i = 0; i < 10; ++i) {
    a.send_udp(*web, 5001, 8080, 400);
    a.send_udp(*b.ip(), 5002, 7777, 300);
    loop.run_for(300 * kMillisecond);
  }
  loop.run_for(2 * kSecond);

  auto rs = router.db().query("SELECT dst_ip, sum(bytes) FROM Flows WHERE "
                              "device = '" + a.mac().to_string() +
                              "' GROUP BY dst_ip");
  ASSERT_TRUE(rs.ok());
  std::set<std::string> dsts;
  for (const auto& row : rs.value().rows) dsts.insert(row[0].as_text());
  EXPECT_TRUE(dsts.count(web->to_string()) == 1) << "upstream flow missing";
  EXPECT_TRUE(dsts.count(b.ip()->to_string()) == 1)
      << "intra-home flow missing from the router's view";
}

TEST_F(IntegrationFixture, DevicesNeverLearnEachOthersMacs) {
  // Isolation invariant: even when a talks to b, the frames b receives come
  // from the router's MAC. We check by snooping b's ARP cache behaviour —
  // b replies to pings with dst = router MAC (its only ARP entry).
  sim::Host& a = admitted_device("a");
  sim::Host& b = admitted_device("b");
  EXPECT_TRUE(ping(a, *b.ip()));
  // a's path to b resolved through proxy ARP: the ARP reply came from the
  // router's MAC for b's IP.
  EXPECT_GE(router.forwarding().stats().arp_replies.value(), 1u);
  // No direct path exists: the datapath never forwarded a frame with a's MAC
  // to b's port (all frames to b bear the router MAC after rewrite).
}

TEST_F(IntegrationFixture, Figure4UsbPolicyEndToEnd) {
  sim::Host& console = admitted_device("kids-console");

  // Tag + policy via the API (as the policy editor does).
  HttpRequest meta;
  meta.method = "PUT";
  meta.path = "/api/devices/" + console.mac().to_string() + "/metadata";
  meta.body = R"({"tags": ["kids"]})";
  ASSERT_EQ(router.control_api().handle(meta).status, 200);

  ui::PolicyEditor editor(router.control_api());
  ui::PolicyPanels panels;
  panels.who_tags = {"kids"};
  panels.limit_to_sites = true;
  panels.sites = {"*.facebook.com"};
  panels.key_unlocks = true;
  panels.unlock_token = "parent-key";
  ASSERT_TRUE(editor.submit(editor.compile("kids-policy", panels)));

  // Restricted: facebook yes, netflix no.
  EXPECT_TRUE(resolve(console, "www.facebook.com").has_value());
  EXPECT_FALSE(resolve(console, "video.netflix.com").has_value());

  // Insert the key → restrictions lift; remove → they return.
  const auto slot =
      router.policy().usb().insert(ui::PolicyEditor::make_unlock_key("parent-key"));
  ASSERT_NE(slot, 0u);
  EXPECT_TRUE(resolve(console, "video.netflix.com").has_value());
  router.policy().usb().remove(slot);
  EXPECT_FALSE(resolve(console, "video.netflix.com").has_value());
}

TEST_F(IntegrationFixture, WrongKeyDoesNotUnlock) {
  sim::Host& console = admitted_device("kids-console");
  policy::PolicyDocument p;
  p.id = "kids";
  p.who.macs = {console.mac().to_string()};
  p.sites.kind = policy::SiteRuleKind::AllowOnly;
  p.sites.domains = {"*.facebook.com"};
  p.unlock = policy::UnlockEffect::LiftAll;
  p.unlock_token = "parent-key";
  router.policy().install(std::move(p));

  const auto slot =
      router.policy().usb().insert(ui::PolicyEditor::make_unlock_key("kid-forgery"));
  ASSERT_NE(slot, 0u);
  EXPECT_FALSE(resolve(console, "video.netflix.com").has_value());
}

TEST_F(IntegrationFixture, TcpDownloadFlowsBothDirections) {
  sim::Host& host = admitted_device("laptop");
  const auto web = resolve(host, "www.example.com");
  ASSERT_TRUE(web.has_value());

  host.send_tcp(*web, 45000, 80, net::TcpFlags::kSyn, 0);
  loop.run_for(kSecond);
  for (int i = 0; i < 5; ++i) {
    host.send_tcp(*web, 45000, 80, net::TcpFlags::kAck | net::TcpFlags::kPsh,
                  300);
    loop.run_for(500 * kMillisecond);
  }
  loop.run_for(2 * kSecond);

  // The upstream served responses (the download) and both directions appear
  // in the Flows table.
  EXPECT_GT(router.upstream().stats().bytes_served.value(), 0u);
  auto rs = router.db().query(
      "SELECT src_ip, sum(bytes) FROM Flows WHERE app = 'web' GROUP BY src_ip");
  ASSERT_TRUE(rs.ok());
  std::set<std::string> srcs;
  for (const auto& row : rs.value().rows) srcs.insert(row[0].as_text());
  EXPECT_EQ(srcs.count(host.ip()->to_string()), 1u);  // upload direction
  EXPECT_EQ(srcs.count(web->to_string()), 1u);        // download direction
}

TEST_F(IntegrationFixture, ColdStartToFirstByteUnderASecond) {
  // Control-plane latency shape check: admission → lease → first forwarded
  // packet happens within a virtual second once the device is permitted.
  sim::Host& host = make_device("phone");
  permit(host);
  const Timestamp start = loop.now();
  ASSERT_TRUE(bind(host).has_value());
  EXPECT_LT(loop.now() - start, kSecond);
}

struct CaptureFixture : RouterFixture {
  static HomeworkRouter::Config config() {
    auto c = default_config();
    c.admission = DeviceRegistry::AdmissionDefault::PermitAll;
    c.capture_uplink = true;
    return c;
  }
  CaptureFixture() : RouterFixture(config()) {}
};

TEST_F(CaptureFixture, UplinkPcapCaptureRoundTrips) {
  sim::Host& host = make_device("laptop");
  ASSERT_TRUE(bind(host).has_value());
  std::optional<Ipv4Address> web;
  host.resolve("www.example.com", [&](Result<Ipv4Address> r, const std::string&) {
    if (r.ok()) web = r.value();
  });
  loop.run_for(2 * kSecond);
  ASSERT_TRUE(web.has_value());
  for (int i = 0; i < 5; ++i) {
    host.send_udp(*web, 5000, 8080, 200);
    loop.run_for(200 * kMillisecond);
  }

  // Both directions captured: the relayed DNS exchange plus the UDP flow.
  auto& trace = router.uplink_trace();
  EXPECT_GT(trace.parsed_at("uplink-tx").size(), 4u);
  EXPECT_GE(trace.parsed_at("uplink-rx").size(), 1u);

  // The capture round-trips through the pcap format with frames intact.
  const std::string path = ::testing::TempDir() + "/hw_uplink_test.pcap";
  ASSERT_TRUE(sim::write_pcap(trace, path).ok());
  auto packets = sim::read_pcap(path);
  ASSERT_TRUE(packets.ok());
  ASSERT_EQ(packets.value().size(), trace.size());
  std::size_t udp_8080 = 0;
  for (const auto& pkt : packets.value()) {
    auto p = net::ParsedPacket::parse(pkt.frame);
    if (p.ok() && p.value().udp && p.value().udp->dst_port == 8080) ++udp_8080;
  }
  EXPECT_EQ(udp_8080, 5u);
  std::remove(path.c_str());
}

TEST_F(IntegrationFixture, RouterSurvivesGarbageTraffic) {
  sim::Host& host = admitted_device("laptop");
  (void)host;
  // Blast malformed frames at every layer boundary.
  router.datapath().receive_frame(2, Bytes{});
  router.datapath().receive_frame(2, Bytes{0x01});
  router.datapath().receive_frame(2, Bytes(13, 0xff));
  Bytes truncated_ip = net::build_udp(
      MacAddress::from_index(1), router.config().router_mac,
      Ipv4Address{192, 168, 1, 100}, Ipv4Address{8, 8, 8, 8}, 1, 53, Bytes(64, 0));
  truncated_ip.resize(20);
  router.datapath().receive_frame(2, truncated_ip);
  loop.run_for(kSecond);
  // Still alive and serving.
  HttpRequest status;
  status.method = "GET";
  status.path = "/api/status";
  EXPECT_EQ(router.control_api().handle(status).status, 200);
}

TEST_F(IntegrationFixture, TelemetryExportedThroughHwdb) {
  // The router's self-measurement: MetricsExport polls the telemetry
  // registry into the Metrics table, so the same CQL surface every display
  // reads from must return the platform's own live counters.
  sim::Host& host = admitted_device("laptop");
  ASSERT_TRUE(resolve(host, "www.example.com").has_value());
  loop.run_for(2 * kSecond);  // at least one poll interval past the traffic

  const auto rs = router.db().query(
      "SELECT name, last(value) FROM Metrics [SINCE 0] GROUP BY name");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().columns.size(), 2u);
  ASSERT_FALSE(rs.value().rows.empty());

  auto value_of = [&](const std::string& name) -> std::optional<double> {
    for (const auto& row : rs.value().rows) {
      if (row[0].as_text() == name) return row[1].as_real();
    }
    return std::nullopt;
  };
  // One live counter per layer of the stack, all driven by the DHCP + DNS
  // traffic above.
  for (const char* name :
       {"openflow.flow_table.lookups", "nox.controller.packet_ins",
        "homework.dhcp.acks", "hwdb.database.inserts", "sim.host.tx_frames"}) {
    const auto v = value_of(name);
    ASSERT_TRUE(v.has_value()) << name;
    EXPECT_GT(*v, 0.0) << name;
  }
  // The hot-path histograms export flattened percentiles.
  for (const char* name :
       {"openflow.flow_table.lookup_ns.p99",
        "nox.controller.packet_in_dispatch_ns.p99",
        "hwdb.database.insert_ns.p99"}) {
    const auto v = value_of(name);
    ASSERT_TRUE(v.has_value()) << name;
    EXPECT_GT(*v, 0.0) << name;
  }
}

}  // namespace
}  // namespace hw::homework
