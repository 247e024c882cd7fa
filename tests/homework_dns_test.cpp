// The Homework DNS proxy module: interception, policy-gated resolution,
// the per-device name cache, flow verdicts and reverse lookups (paper §2).
#include "router_fixture.hpp"

namespace hw::homework {
namespace {

using testing::RouterFixture;

struct DnsFixture : RouterFixture {
  /// Resolves synchronously in virtual time; empty result = failure.
  std::optional<Ipv4Address> resolve(sim::Host& host, const std::string& name) {
    std::optional<Ipv4Address> out;
    bool done = false;
    host.resolve(name, [&](Result<Ipv4Address> r, const std::string&) {
      if (r.ok()) out = r.value();
      done = true;
    });
    const Timestamp deadline = loop.now() + 5 * kSecond;
    while (!done && loop.now() < deadline) loop.run_for(50 * kMillisecond);
    return out;
  }

  void install_kids_policy(const sim::Host& kid) {
    policy::PolicyDocument p;
    p.id = "kids";
    p.who.macs = {kid.mac().to_string()};
    p.sites.kind = policy::SiteRuleKind::AllowOnly;
    p.sites.domains = {"*.facebook.com"};
    router.policy().install(std::move(p));
  }

  /// The proxy's synchronous flow verdict for `host` contacting `dst`.
  DnsProxy::FlowVerdict check_flow(const sim::Host& host, Ipv4Address dst) {
    return router.dns().check_flow(dpid(), host.mac(), dst);
  }
};

TEST_F(DnsFixture, ResolvesThroughProxy) {
  sim::Host& host = admitted_device("laptop");
  const auto ip = resolve(host, "www.example.com");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "93.184.216.34");
  EXPECT_EQ(router.dns().stats().queries.value(), 1u);
  EXPECT_EQ(router.dns().stats().forwarded.value(), 1u);
  EXPECT_EQ(router.dns().stats().responses.value(), 1u);
  EXPECT_EQ(router.upstream().stats().dns_queries.value(), 1u);
}

TEST_F(DnsFixture, UnknownNameGetsNxdomain) {
  sim::Host& host = admitted_device("laptop");
  EXPECT_FALSE(resolve(host, "no.such.host").has_value());
  EXPECT_EQ(router.upstream().stats().dns_nxdomain.value(), 1u);
}

TEST_F(DnsFixture, UnpermittedDeviceQueriesDropped) {
  sim::Host& host = make_device("intruder");
  // Give it a forged address so it can even emit a query.
  host.start_dhcp();
  loop.run_for(kSecond);
  EXPECT_FALSE(host.ip().has_value());
  // Queries from unleased devices never reach upstream.
  EXPECT_EQ(router.upstream().stats().dns_queries.value(), 0u);
}

TEST_F(DnsFixture, PolicyBlockedNameRefused) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);
  EXPECT_FALSE(resolve(kid, "video.netflix.com").has_value());
  EXPECT_TRUE(resolve(kid, "www.facebook.com").has_value());
  EXPECT_EQ(router.dns().stats().blocked.value(), 1u);
  // The refused query never went upstream.
  EXPECT_EQ(router.upstream().stats().dns_queries.value(), 1u);
}

TEST_F(DnsFixture, PolicyDoesNotAffectOtherDevices) {
  sim::Host& kid = admitted_device("console");
  sim::Host& adult = admitted_device("laptop");
  install_kids_policy(kid);
  EXPECT_TRUE(resolve(adult, "video.netflix.com").has_value());
}

TEST_F(DnsFixture, NameCacheFeedsFlowVerdicts) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);
  ASSERT_TRUE(resolve(kid, "www.facebook.com").has_value());

  // Facebook's address is now cached for the console → Allow.
  EXPECT_EQ(check_flow(kid, Ipv4Address{31, 13, 72, 1}),
            DnsProxy::FlowVerdict::Allow);
  // Netflix's address was never resolved → Unknown (triggers reverse lookup).
  EXPECT_EQ(check_flow(kid, Ipv4Address{45, 57, 3, 1}),
            DnsProxy::FlowVerdict::Unknown);
  const auto names = router.dns().names_for(dpid(), kid.mac());
  EXPECT_NE(std::find(names.begin(), names.end(), "www.facebook.com"),
            names.end());
}

TEST_F(DnsFixture, UnrestrictedDeviceFlowsAllowed) {
  sim::Host& host = admitted_device("laptop");
  EXPECT_EQ(check_flow(host, Ipv4Address{8, 8, 8, 8}),
            DnsProxy::FlowVerdict::Allow);
}

TEST_F(DnsFixture, ReverseLookupAllowsMatchingDomain) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);

  // facebook.com's address reverse-resolves to a facebook name → Allow.
  std::optional<DnsProxy::FlowVerdict> verdict;
  router.dns().reverse_lookup(router.controller().datapaths()[0], kid.mac(),
                              Ipv4Address{31, 13, 72, 1},
                              [&](DnsProxy::FlowVerdict v) { verdict = v; });
  loop.run_for(kSecond);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, DnsProxy::FlowVerdict::Allow);
  EXPECT_EQ(router.dns().stats().reverse_lookups.value(), 1u);
  // And the verdict is cached for synchronous reuse.
  EXPECT_EQ(check_flow(kid, Ipv4Address{31, 13, 72, 1}),
            DnsProxy::FlowVerdict::Allow);
}

TEST_F(DnsFixture, ReverseLookupDeniesNonMatchingDomain) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);
  std::optional<DnsProxy::FlowVerdict> verdict;
  router.dns().reverse_lookup(router.controller().datapaths()[0], kid.mac(),
                              Ipv4Address{45, 57, 3, 1},
                              [&](DnsProxy::FlowVerdict v) { verdict = v; });
  loop.run_for(kSecond);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, DnsProxy::FlowVerdict::Deny);
}

TEST_F(DnsFixture, ReverseLookupTimesOutClosed) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);
  // An address with no PTR record and no upstream response path: point the
  // lookup at an address the upstream zone does not know → NXDOMAIN → Deny.
  std::optional<DnsProxy::FlowVerdict> verdict;
  router.dns().reverse_lookup(router.controller().datapaths()[0], kid.mac(),
                              Ipv4Address{203, 0, 113, 9},
                              [&](DnsProxy::FlowVerdict v) { verdict = v; });
  loop.run_for(4 * kSecond);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(*verdict, DnsProxy::FlowVerdict::Deny);
}

TEST_F(DnsFixture, CacheEntriesExpireAfterTtl) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);
  ASSERT_TRUE(resolve(kid, "www.facebook.com").has_value());
  ASSERT_EQ(check_flow(kid, Ipv4Address{31, 13, 72, 1}),
            DnsProxy::FlowVerdict::Allow);
  // Default cache TTL is 600 s; past it the verdict must revert to Unknown
  // ("flow not matching previously requested names" → reverse lookup).
  loop.run_for(601 * kSecond);
  EXPECT_EQ(check_flow(kid, Ipv4Address{31, 13, 72, 1}),
            DnsProxy::FlowVerdict::Unknown);
}

TEST_F(DnsFixture, FlushCacheForgetsVerdicts) {
  sim::Host& kid = admitted_device("console");
  install_kids_policy(kid);
  ASSERT_TRUE(resolve(kid, "www.facebook.com").has_value());
  ASSERT_EQ(check_flow(kid, Ipv4Address{31, 13, 72, 1}),
            DnsProxy::FlowVerdict::Allow);
  router.dns().flush_cache();
  EXPECT_EQ(check_flow(kid, Ipv4Address{31, 13, 72, 1}),
            DnsProxy::FlowVerdict::Unknown);
}

TEST_F(DnsFixture, PolicyInstallFlushesCacheAutomatically) {
  sim::Host& kid = admitted_device("console");
  ASSERT_TRUE(resolve(kid, "video.netflix.com").has_value());
  // Unrestricted → Allow (no cache needed).
  ASSERT_EQ(check_flow(kid, Ipv4Address{45, 57, 3, 1}),
            DnsProxy::FlowVerdict::Allow);
  // Now restrict: the policy change handler flushes; netflix must no longer
  // be allowed through a stale verdict.
  install_kids_policy(kid);
  EXPECT_NE(check_flow(kid, Ipv4Address{45, 57, 3, 1}),
            DnsProxy::FlowVerdict::Allow);
}

TEST_F(DnsFixture, ConcurrentQueriesFromTwoDevices) {
  sim::Host& a = admitted_device("a");
  sim::Host& b = admitted_device("b");
  std::optional<Ipv4Address> ra, rb;
  a.resolve("www.example.com", [&](Result<Ipv4Address> r, const std::string&) {
    if (r.ok()) ra = r.value();
  });
  b.resolve("www.facebook.com", [&](Result<Ipv4Address> r, const std::string&) {
    if (r.ok()) rb = r.value();
  });
  loop.run_for(2 * kSecond);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->to_string(), "93.184.216.34");
  EXPECT_EQ(rb->to_string(), "31.13.72.1");
}

}  // namespace
}  // namespace hw::homework
