// The Homework DHCP server module: admission gating (Figure 3 semantics),
// lease lifecycle, isolation netmask, pool management and expiry.
#include "router_fixture.hpp"
#include "scenario/scenario.hpp"

namespace hw::homework {
namespace {

using testing::RouterFixture;

struct DhcpFixture : RouterFixture {};

TEST_F(DhcpFixture, PendingDeviceGetsSilence) {
  sim::Host& host = make_device("newbie");
  host.start_dhcp();
  loop.run_for(3 * kSecond);
  EXPECT_FALSE(host.ip().has_value());
  EXPECT_EQ(host.dhcp_state(), sim::DhcpClientState::Selecting);
  // ... but the router saw it: it shows on the control board as pending.
  const DeviceRecord* rec = record(host);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, DeviceState::Pending);
  EXPECT_GT(router.dhcp().stats().ignored_pending.value(), 0u);
  EXPECT_EQ(router.dhcp().stats().offers.value(), 0u);
}

TEST_F(DhcpFixture, PermittedDeviceLeases) {
  sim::Host& host = make_device("laptop");
  permit(host);
  auto ip = bind(host);
  ASSERT_TRUE(ip.has_value());
  EXPECT_TRUE(router.config().subnet.contains(*ip));
  const DeviceRecord* rec = record(host);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->lease.has_value());
  EXPECT_EQ(rec->lease->ip, *ip);
  EXPECT_EQ(rec->lease->hostname, "laptop");
  EXPECT_EQ(router.dhcp().stats().acks.value(), 1u);
}

TEST_F(DhcpFixture, IsolationMaskIsSlash32) {
  sim::Host& host = make_device("laptop");
  permit(host);
  bind(host);
  // The /32 mask means the client routes everything via the router — its
  // gateway is set and it has no on-link peers.
  EXPECT_EQ(host.gateway(), router.config().router_ip);
  EXPECT_EQ(host.dns_server(), router.config().router_ip);
}

TEST_F(DhcpFixture, DeniedDeviceGetsNak) {
  sim::Host& host = make_device("banned");
  deny(host);
  int naks = 0;
  host.on_nak([&] { ++naks; });
  host.start_dhcp();
  loop.run_for(2 * kSecond);
  EXPECT_FALSE(host.ip().has_value());
  EXPECT_GE(naks, 1);
  EXPECT_GE(router.dhcp().stats().naks.value(), 1u);
}

TEST_F(DhcpFixture, PermitAfterPendingUnblocks) {
  sim::Host& host = make_device("eventually");
  host.start_dhcp();
  loop.run_for(3 * kSecond);
  EXPECT_FALSE(host.ip().has_value());
  permit(host);
  loop.run_for(5 * kSecond);  // client retries DISCOVER every 2s
  EXPECT_TRUE(host.ip().has_value());
}

TEST_F(DhcpFixture, StickyAllocationAcrossRestart) {
  sim::Host& host = make_device("laptop");
  permit(host);
  const auto first = bind(host);
  ASSERT_TRUE(first.has_value());
  host.release_dhcp();
  loop.run_for(kSecond);
  const auto second = bind(host);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
}

TEST_F(DhcpFixture, DistinctDevicesDistinctAddresses) {
  sim::Host& a = admitted_device("a");
  sim::Host& b = admitted_device("b");
  sim::Host& c = admitted_device("c");
  EXPECT_NE(a.ip(), b.ip());
  EXPECT_NE(b.ip(), c.ip());
  EXPECT_NE(a.ip(), c.ip());
}

TEST_F(DhcpFixture, ReleaseClearsLeaseInRegistry) {
  sim::Host& host = admitted_device("laptop");
  host.release_dhcp();
  loop.run_for(kSecond);
  const DeviceRecord* rec = record(host);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->lease.has_value());
  EXPECT_EQ(router.dhcp().stats().releases.value(), 1u);
}

TEST_F(DhcpFixture, RenewalKeepsAddress) {
  sim::Host& host = admitted_device("laptop");
  const auto ip = host.ip();
  // Lease 3600s → client renews at 1800s.
  loop.run_for(1900 * kSecond);
  EXPECT_EQ(host.ip(), ip);
  EXPECT_EQ(host.dhcp_state(), sim::DhcpClientState::Bound);
  EXPECT_GE(router.dhcp().stats().acks.value(), 2u);
}

TEST_F(DhcpFixture, DenyAfterLeaseNaksRenewal) {
  sim::Host& host = admitted_device("laptop");
  deny(host);
  int naks = 0;
  host.on_nak([&] { ++naks; });
  host.start_dhcp();  // re-request
  loop.run_for(2 * kSecond);
  EXPECT_GE(naks, 1);
  EXPECT_FALSE(host.ip().has_value());
}

TEST_F(DhcpFixture, LeaseEventsLandInHwdb) {
  sim::Host& host = admitted_device("laptop");
  (void)host;
  auto rs = router.db().query(
      "SELECT mac, event FROM Leases WHERE event = 'lease_granted'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);
  EXPECT_EQ(rs.value().rows[0][0].as_text(), host.mac().to_string());
}

struct SmallPoolFixture : RouterFixture {
  static HomeworkRouter::Config small_pool() {
    auto config = default_config();
    config.admission = DeviceRegistry::AdmissionDefault::PermitAll;
    config.pool_start = Ipv4Address{192, 168, 1, 100};
    config.pool_end = Ipv4Address{192, 168, 1, 101};  // two addresses
    return config;
  }
  SmallPoolFixture() : RouterFixture(small_pool()) {}
};

TEST_F(SmallPoolFixture, PoolExhaustionLeavesThirdDeviceUnserved) {
  sim::Host& a = make_device("a");
  sim::Host& b = make_device("b");
  sim::Host& c = make_device("c");
  ASSERT_TRUE(bind(a).has_value());
  ASSERT_TRUE(bind(b).has_value());
  EXPECT_FALSE(bind(c, 3 * kSecond).has_value());
  EXPECT_GT(router.dhcp().stats().pool_exhausted.value(), 0u);
}

TEST_F(SmallPoolFixture, ExhaustionNeverDoubleAllocates) {
  sim::Host& a = make_device("a");
  sim::Host& b = make_device("b");
  sim::Host& c = make_device("c");
  ASSERT_TRUE(bind(a).has_value());
  ASSERT_TRUE(bind(b).has_value());
  EXPECT_FALSE(bind(c, 3 * kSecond).has_value());
  // The two live leases stay distinct and the unserved device was ignored,
  // not NAKed (it may be served later when the pool frees up).
  EXPECT_NE(a.ip(), b.ip());
  EXPECT_EQ(c.stats().dhcp_naks.value(), 0u);
  const DeviceRecord* rec_c = record(c);
  ASSERT_NE(rec_c, nullptr);
  EXPECT_FALSE(rec_c->lease.has_value());
}

struct SmallPoolShortLeaseFixture : RouterFixture {
  static HomeworkRouter::Config config() {
    auto c = SmallPoolFixture::small_pool();
    c.lease_secs = 10;  // renewal fires at 5s, mid-exhaustion
    return c;
  }
  SmallPoolShortLeaseFixture() : RouterFixture(config()) {}
};

TEST_F(SmallPoolShortLeaseFixture, RenewDuringExhaustionKeepsLease) {
  sim::Host& a = make_device("a");
  sim::Host& b = make_device("b");
  const auto ip_a = bind(a);
  const auto ip_b = bind(b);
  ASSERT_TRUE(ip_a.has_value());
  ASSERT_TRUE(ip_b.has_value());
  // A third device hammers the empty pool while a and b renew through it.
  sim::Host& c = make_device("c");
  c.start_dhcp();
  loop.run_for(12 * kSecond);
  EXPECT_GT(router.dhcp().stats().pool_exhausted.value(), 0u);
  // Renewals (REQUEST against the sticky allocation) succeeded: same
  // addresses, still bound, never NAKed.
  EXPECT_EQ(a.ip(), ip_a);
  EXPECT_EQ(b.ip(), ip_b);
  EXPECT_EQ(a.dhcp_state(), sim::DhcpClientState::Bound);
  EXPECT_GE(a.stats().dhcp_acks.value(), 2u);
  EXPECT_EQ(a.stats().dhcp_naks.value(), 0u);
  EXPECT_EQ(b.stats().dhcp_naks.value(), 0u);
  const DeviceRecord* rec_a = record(a);
  const DeviceRecord* rec_b = record(b);
  ASSERT_NE(rec_a, nullptr);
  ASSERT_NE(rec_b, nullptr);
  ASSERT_TRUE(rec_a->lease.has_value());
  ASSERT_TRUE(rec_b->lease.has_value());
  EXPECT_NE(rec_a->lease->ip, rec_b->lease->ip);
}

struct SpoofedPoolFixture : RouterFixture {
  static HomeworkRouter::Config config() {
    auto c = SmallPoolFixture::small_pool();
    c.dhcp_offer_hold = 2 * kSecond;
    return c;
  }
  SpoofedPoolFixture() : RouterFixture(config()) {}
};

TEST_F(SpoofedPoolFixture, UnclaimedSpoofedOffersExpireBackIntoPool) {
  // An attacker NIC behind port 2 sprays DISCOVERs from two spoofed MACs —
  // enough to drain the whole two-address pool with unclaimed offers.
  make_device("attacker-nic");
  sim::DuplexLink* link = last_link();
  ASSERT_NE(link, nullptr);
  for (std::uint32_t i = 0; i < 2; ++i) {
    link->a_to_b().send(scenario::spoofed_discover(
        MacAddress::from_index(0x200000u + i), 0x1000u + i, "spoof"));
  }
  loop.run_for(200 * kMillisecond);
  EXPECT_EQ(router.dhcp().stats().offers.value(), 2u);

  // A legitimate device now finds the pool dry (counted, silently ignored)…
  sim::Host& legit = make_device("legit");
  legit.start_dhcp();
  loop.run_for(500 * kMillisecond);
  EXPECT_FALSE(legit.ip().has_value());
  EXPECT_GT(router.dhcp().stats().pool_exhausted.value(), 0u);
  EXPECT_EQ(legit.stats().dhcp_naks.value(), 0u);

  // …until the never-ACKed offers expire after offer_hold and the client's
  // periodic retry claims a freed address.
  loop.run_for(6 * kSecond);
  EXPECT_GE(router.dhcp().stats().offers_expired.value(), 2u);
  EXPECT_TRUE(legit.ip().has_value());
}

struct ShortLeaseFixture : RouterFixture {
  static HomeworkRouter::Config short_lease() {
    auto config = default_config();
    config.admission = DeviceRegistry::AdmissionDefault::PermitAll;
    config.lease_secs = 10;
    return config;
  }
  ShortLeaseFixture() : RouterFixture(short_lease()) {}
};

TEST_F(ShortLeaseFixture, UnrenewedLeaseExpiresInRegistry) {
  sim::Host& host = make_device("flaky");
  ASSERT_TRUE(bind(host).has_value());
  // Detach the device so it cannot renew: silence from the client side.
  host.attach_uplink(nullptr);
  loop.run_for(30 * kSecond);
  const DeviceRecord* rec = record(host);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->lease.has_value());
  EXPECT_GT(router.dhcp().stats().expired.value(), 0u);
  // The expiry shows in hwdb's Leases table too (artifact mode 3 blue flash).
  auto rs = router.db().query(
      "SELECT mac FROM Leases WHERE event = 'lease_expired'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);
}

TEST(DeviceRegistryByIp, EachHomeResolvesItsOwnLeases) {
  // 64 homes (even dpids 2..128) hand out the same private addresses. Odd
  // dpids between them have no devices: their lookups must stop at their
  // own (empty) range instead of running into the next home's records.
  DeviceRegistry registry(DeviceRegistry::AdmissionDefault::PermitAll);
  constexpr std::uint64_t kHomes = 64;
  constexpr std::uint32_t kLeased = 3;
  const auto home_dpid = [](std::uint64_t h) { return 2 * (h + 1); };
  const auto device_mac = [](std::uint64_t h, std::uint32_t i) {
    return MacAddress::from_index(static_cast<std::uint32_t>(h * 16 + i + 1));
  };
  const auto lease_ip = [](std::uint32_t i) {
    return Ipv4Address{192, 168, 1, static_cast<std::uint8_t>(100 + i)};
  };
  for (std::uint64_t h = 0; h < kHomes; ++h) {
    const std::uint64_t dpid = home_dpid(h);
    // One device in every home never leases; it sorts first by MAC.
    registry.touch(dpid, MacAddress::from_index(0), 0, "quiet");
    for (std::uint32_t i = 0; i < kLeased; ++i) {
      registry.touch(dpid, device_mac(h, i), 0, "dev");
      registry.record_lease(dpid, device_mac(h, i),
                            Lease{lease_ip(i), 0, 3600 * kSecond, "dev"},
                            /*renewal=*/false, 0);
    }
  }

  for (std::uint64_t h = 0; h < kHomes; ++h) {
    const std::uint64_t dpid = home_dpid(h);
    for (std::uint32_t i = 0; i < kLeased; ++i) {
      const DeviceRecord* rec = registry.find_by_ip(dpid, lease_ip(i));
      ASSERT_NE(rec, nullptr) << "home " << dpid << " device " << i;
      EXPECT_EQ(rec->dpid, dpid);
      EXPECT_EQ(rec->mac, device_mac(h, i));
    }
    EXPECT_EQ(registry.find_by_ip(dpid, Ipv4Address{192, 168, 1, 99}), nullptr);
    EXPECT_EQ(registry.find_by_ip(dpid + 1, lease_ip(0)), nullptr)
        << "empty home " << dpid + 1;
  }
  EXPECT_EQ(registry.find_by_ip(0, lease_ip(0)), nullptr);
  EXPECT_EQ(registry.find_by_ip(home_dpid(kHomes), lease_ip(0)), nullptr);

  // A released and an expired lease are no longer found — in that home
  // only.
  const std::uint64_t home = home_dpid(10);
  registry.clear_lease(home, device_mac(10, 0), /*expired=*/false, 0);
  registry.clear_lease(home, device_mac(10, 1), /*expired=*/true, 0);
  EXPECT_EQ(registry.find_by_ip(home, lease_ip(0)), nullptr);
  EXPECT_EQ(registry.find_by_ip(home, lease_ip(1)), nullptr);
  ASSERT_NE(registry.find_by_ip(home, lease_ip(2)), nullptr);
  EXPECT_EQ(registry.find_by_ip(home, lease_ip(2))->mac, device_mac(10, 2));
  ASSERT_NE(registry.find_by_ip(home_dpid(9), lease_ip(0)), nullptr);
  ASSERT_NE(registry.find_by_ip(home_dpid(11), lease_ip(1)), nullptr);
}

}  // namespace
}  // namespace hw::homework
