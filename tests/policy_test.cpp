// Policy engine: selectors, schedules, document JSON round-trips, the
// compile step to per-device restrictions, USB key layout/monitor, and the
// engine's unlock semantics.
#include <gtest/gtest.h>

#include "policy/engine.hpp"

namespace hw::policy {
namespace {

/// Every engine test names a device of this home.
constexpr std::uint64_t kHome = 1;

MacAddress mac(const char* text) { return MacAddress::parse(text).value(); }

PolicyDocument kids_policy() {
  PolicyDocument p;
  p.id = "kids-facebook";
  p.description = "kids only facebook on weekday evenings";
  p.who.tags = {"kids"};
  p.sites.kind = SiteRuleKind::AllowOnly;
  p.sites.domains = {"*.facebook.com"};
  p.when.days = {1, 2, 3, 4, 5};
  p.when.start_minute = 16 * 60;
  p.when.end_minute = 21 * 60;
  p.unlock = UnlockEffect::LiftAll;
  p.unlock_token = "parent-key";
  return p;
}

// ---------------------------------------------------------------------------
// Selectors & schedules

TEST(DeviceSelector, MatchesByMacOrTag) {
  DeviceSelector sel;
  sel.macs = {"aa:bb:cc:dd:ee:ff"};
  sel.tags = {"kids"};
  EXPECT_TRUE(sel.selects("AA:BB:CC:DD:EE:FF", {}));
  EXPECT_TRUE(sel.selects("11:11:11:11:11:11", {"KIDS"}));
  EXPECT_FALSE(sel.selects("11:11:11:11:11:11", {"adults"}));
  EXPECT_FALSE(sel.selects("11:11:11:11:11:11", {}));
}

TEST(Schedule, AlwaysByDefault) {
  Schedule s;
  EXPECT_TRUE(s.always());
  EXPECT_TRUE(s.active_at(0, 1));
  EXPECT_TRUE(s.active_at(3 * kDay + 23 * kHour, 1));
}

TEST(Schedule, WeekdaySelection) {
  Schedule s;
  s.days = {1, 2, 3, 4, 5};  // Mon-Fri
  // Epoch weekday 1 (Monday): day 0 is Monday ... day 5 is Saturday.
  EXPECT_TRUE(s.active_at(0, 1));
  EXPECT_TRUE(s.active_at(4 * kDay, 1));   // Friday
  EXPECT_FALSE(s.active_at(5 * kDay, 1));  // Saturday
  EXPECT_FALSE(s.active_at(6 * kDay, 1));  // Sunday
  EXPECT_TRUE(s.active_at(7 * kDay, 1));   // Monday again
}

TEST(Schedule, TimeOfDayWindow) {
  Schedule s;
  s.start_minute = 16 * 60;
  s.end_minute = 21 * 60;
  EXPECT_FALSE(s.active_at(15 * kHour + 59 * kMinute, 1));
  EXPECT_TRUE(s.active_at(16 * kHour, 1));
  EXPECT_TRUE(s.active_at(20 * kHour + 59 * kMinute, 1));
  EXPECT_FALSE(s.active_at(21 * kHour, 1));
}

TEST(Schedule, WrappingWindow) {
  Schedule s;  // 21:00 → 07:00 (overnight block)
  s.start_minute = 21 * 60;
  s.end_minute = 7 * 60;
  EXPECT_TRUE(s.active_at(22 * kHour, 1));
  EXPECT_TRUE(s.active_at(6 * kHour, 1));
  EXPECT_FALSE(s.active_at(12 * kHour, 1));
}

// ---------------------------------------------------------------------------
// JSON round trip & validation

TEST(PolicyDocument, JsonRoundTrip) {
  const PolicyDocument p = kids_policy();
  auto parsed = PolicyDocument::from_json(p.to_json());
  ASSERT_TRUE(parsed.ok());
  const auto& out = parsed.value();
  EXPECT_EQ(out.id, p.id);
  EXPECT_EQ(out.who.tags, p.who.tags);
  EXPECT_EQ(out.sites.kind, SiteRuleKind::AllowOnly);
  EXPECT_EQ(out.sites.domains, p.sites.domains);
  EXPECT_EQ(out.when.days, p.when.days);
  EXPECT_EQ(out.when.start_minute, p.when.start_minute);
  EXPECT_EQ(out.unlock, UnlockEffect::LiftAll);
  EXPECT_EQ(out.unlock_token, "parent-key");
}

TEST(PolicyDocument, FromJsonValidation) {
  EXPECT_FALSE(PolicyDocument::from_json(Json(1)).ok());
  auto parse = [](const char* text) {
    return PolicyDocument::from_json(Json::parse(text).value());
  };
  EXPECT_FALSE(parse(R"({"who": {"tags": ["kids"]}})").ok());  // no id
  EXPECT_FALSE(parse(R"({"id": "x"})").ok());                  // empty selector
  EXPECT_FALSE(
      parse(R"({"id": "x", "who": {"tags": ["k"]}, "when": {"days": [9]}})").ok());
  EXPECT_FALSE(
      parse(R"({"id": "x", "who": {"tags": ["k"]}, "unlock": "lift_all"})").ok());
  EXPECT_FALSE(
      parse(R"({"id": "x", "who": {"tags": ["k"]}, "sites": {"kind": "weird"}})")
          .ok());
  EXPECT_TRUE(parse(R"({"id": "x", "who": {"macs": ["aa:bb:cc:dd:ee:ff"]}})").ok());
}

// ---------------------------------------------------------------------------
// Compilation

TEST(Compile, NoPoliciesMeansUnrestricted) {
  const auto r = compile_restriction(std::vector<PolicyDocument>{}, "aa:bb", {}, {});
  EXPECT_TRUE(r.unrestricted());
  EXPECT_TRUE(r.domain_allowed("anything.example"));
}

TEST(Compile, AllowOnlyRestrictsDomains) {
  EvalContext ctx;
  ctx.now = 17 * kHour;  // Monday 17:00
  const auto r = compile_restriction({kids_policy()}, "x", {"kids"}, ctx);
  EXPECT_TRUE(r.allow_only);
  EXPECT_TRUE(r.domain_allowed("www.facebook.com"));
  EXPECT_FALSE(r.domain_allowed("video.netflix.com"));
  EXPECT_EQ(r.sources, (std::vector<std::string>{"kids-facebook"}));
}

TEST(Compile, OutsideScheduleUnrestricted) {
  EvalContext ctx;
  ctx.now = 10 * kHour;  // Monday morning: outside 16:00-21:00
  EXPECT_TRUE(compile_restriction({kids_policy()}, "x", {"kids"}, ctx)
                  .unrestricted());
  ctx.now = 5 * kDay + 17 * kHour;  // Saturday evening
  EXPECT_TRUE(compile_restriction({kids_policy()}, "x", {"kids"}, ctx)
                  .unrestricted());
}

TEST(Compile, NonSelectedDeviceUnrestricted) {
  EvalContext ctx;
  ctx.now = 17 * kHour;
  EXPECT_TRUE(
      compile_restriction({kids_policy()}, "x", {"adults"}, ctx).unrestricted());
}

TEST(Compile, UnlockTokenLiftsPolicy) {
  EvalContext ctx;
  ctx.now = 17 * kHour;
  ctx.inserted_tokens = {"parent-key"};
  EXPECT_TRUE(compile_restriction({kids_policy()}, "x", {"kids"}, ctx)
                  .unrestricted());
  ctx.inserted_tokens = {"wrong-key"};
  EXPECT_FALSE(compile_restriction({kids_policy()}, "x", {"kids"}, ctx)
                   .unrestricted());
}

TEST(Compile, LiftSitesKeepsNetworkBlock) {
  PolicyDocument p = kids_policy();
  p.block_network = true;
  p.unlock = UnlockEffect::LiftSiteRule;
  EvalContext ctx;
  ctx.now = 17 * kHour;
  ctx.inserted_tokens = {"parent-key"};
  const auto r = compile_restriction({p}, "x", {"kids"}, ctx);
  EXPECT_TRUE(r.network_blocked);   // network block survives
  EXPECT_FALSE(r.allow_only);       // site rule lifted
}

TEST(Compile, BlockListPolicy) {
  PolicyDocument p;
  p.id = "no-gambling";
  p.who.tags = {"kids"};
  p.sites.kind = SiteRuleKind::Block;
  p.sites.domains = {"*.bet365.com"};
  const auto r = compile_restriction({p}, "x", {"kids"}, {});
  EXPECT_FALSE(r.allow_only);
  EXPECT_FALSE(r.domain_allowed("www.bet365.com"));
  EXPECT_TRUE(r.domain_allowed("www.bbc.co.uk"));
}

TEST(Compile, MultiplePoliciesCompose) {
  PolicyDocument block;
  block.id = "block-net";
  block.who.macs = {"aa:aa:aa:aa:aa:aa"};
  block.block_network = true;
  const auto r = compile_restriction({kids_policy(), block},
                                     "aa:aa:aa:aa:aa:aa", {"kids"},
                                     {17 * kHour, 1, {}});
  EXPECT_TRUE(r.network_blocked);
  EXPECT_TRUE(r.allow_only);
  EXPECT_EQ(r.sources.size(), 2u);
  // domain_allowed() evaluates site rules only; the network block is
  // enforced separately (and wins) at the engine level.
  EXPECT_TRUE(r.domain_allowed("www.facebook.com"));
  PolicyEngine engine([] { return Timestamp{17 * kHour}; });
  engine.install(kids_policy());
  engine.install(block);
  engine.set_tags(kHome, mac("aa:aa:aa:aa:aa:aa"), {"kids"});
  EXPECT_FALSE(engine.domain_allowed(kHome, mac("aa:aa:aa:aa:aa:aa"),
                                     "www.facebook.com"));
}

TEST(Compile, RateLimitTakesTightestCap) {
  PolicyDocument slow;
  slow.id = "slow";
  slow.who.tags = {"kids"};
  slow.rate_limit_bps = 2'000'000;
  PolicyDocument slower;
  slower.id = "slower";
  slower.who.tags = {"kids"};
  slower.rate_limit_bps = 500'000;
  PolicyDocument uncapped;
  uncapped.id = "uncapped";
  uncapped.who.tags = {"kids"};

  auto r = compile_restriction({slow, slower, uncapped}, "x", {"kids"}, {});
  EXPECT_EQ(r.rate_limit_bps, 500'000u);
  EXPECT_FALSE(r.unrestricted());

  r = compile_restriction({uncapped}, "x", {"kids"}, {});
  EXPECT_EQ(r.rate_limit_bps, 0u);
}

TEST(PolicyDocument, RateLimitJsonRoundTrip) {
  PolicyDocument p;
  p.id = "cap";
  p.who.tags = {"kids"};
  p.rate_limit_bps = 1'500'000;
  auto parsed = PolicyDocument::from_json(p.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().rate_limit_bps, 1'500'000u);

  auto bad = Json::parse(
      R"({"id": "x", "who": {"tags": ["k"]}, "rate_limit_bps": -5})");
  EXPECT_FALSE(PolicyDocument::from_json(bad.value()).ok());
}

// ---------------------------------------------------------------------------
// USB keys

TEST(UsbKey, MakeAndParse) {
  const auto image = UsbKeyImage::make_key("parent-key", {kids_policy()});
  auto parsed = parse_policy_key(image);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().token, "parent-key");
  ASSERT_EQ(parsed.value().policies.size(), 1u);
  EXPECT_EQ(parsed.value().policies[0].id, "kids-facebook");
}

TEST(UsbKey, RejectsNonPolicyStick) {
  UsbKeyImage holiday_photos;
  holiday_photos.write_file("DCIM/001.jpg", "...");
  EXPECT_FALSE(parse_policy_key(holiday_photos).ok());
  EXPECT_FALSE(parse_policy_key(UsbKeyImage{}).ok());
}

TEST(UsbKey, RejectsCorruptPolicyFile) {
  UsbKeyImage image;
  image.write_file("homework/token", "t\n");
  image.write_file("homework/policies/0.json", "{not json");
  EXPECT_FALSE(parse_policy_key(image).ok());

  UsbKeyImage bad_doc;
  bad_doc.write_file("homework/policies/0.json", R"({"id": "x"})");
  EXPECT_FALSE(parse_policy_key(bad_doc).ok());
}

TEST(UsbKey, TokenOnlyKeyIsValid) {
  EXPECT_TRUE(parse_policy_key(UsbKeyImage::make_key("tok", {})).ok());
}

TEST(UsbMonitor, InsertRemoveLifecycle) {
  UsbMonitor monitor;
  int inserts = 0, removes = 0, invalids = 0;
  monitor.on_insert([&](UsbMonitor::SlotId, const ParsedKey& key) {
    ++inserts;
    EXPECT_EQ(key.token, "tok");
  });
  monitor.on_remove([&](UsbMonitor::SlotId, const ParsedKey&) { ++removes; });
  monitor.on_invalid([&](UsbMonitor::SlotId, const std::string&) { ++invalids; });

  const auto slot = monitor.insert(UsbKeyImage::make_key("tok", {}));
  ASSERT_NE(slot, 0u);
  EXPECT_EQ(inserts, 1);
  EXPECT_EQ(monitor.inserted_tokens(), (std::vector<std::string>{"tok"}));

  EXPECT_TRUE(monitor.remove(slot));
  EXPECT_EQ(removes, 1);
  EXPECT_FALSE(monitor.remove(slot));  // already removed
  EXPECT_TRUE(monitor.inserted_tokens().empty());

  EXPECT_EQ(monitor.insert(UsbKeyImage{}), 0u);
  EXPECT_EQ(invalids, 1);
}

// ---------------------------------------------------------------------------
// Engine

struct EngineFixture : ::testing::Test {
  EngineFixture() : engine([this] { return now; }) {}
  Timestamp now = 17 * kHour;  // Monday 17:00
  PolicyEngine engine;
};

TEST_F(EngineFixture, InstallUninstall) {
  engine.install(kids_policy());
  EXPECT_EQ(engine.policies().size(), 1u);
  const MacAddress kid = mac("aa:bb:cc:dd:ee:01");
  engine.set_tags(kHome, kid, {"kids"});
  EXPECT_FALSE(engine.domain_allowed(kHome, kid, "netflix.com"));
  EXPECT_TRUE(engine.domain_allowed(kHome, kid, "www.facebook.com"));
  EXPECT_TRUE(engine.uninstall("kids-facebook"));
  EXPECT_FALSE(engine.uninstall("kids-facebook"));
  EXPECT_TRUE(engine.domain_allowed(kHome, kid, "netflix.com"));
}

TEST_F(EngineFixture, ScheduleFollowsVirtualClock) {
  engine.install(kids_policy());
  const MacAddress m = MacAddress::from_index(1);
  engine.set_tags(kHome, m, {"kids"});
  EXPECT_FALSE(engine.domain_allowed(kHome, m, "netflix.com"));
  now = 22 * kHour;  // after the window
  EXPECT_TRUE(engine.domain_allowed(kHome, m, "netflix.com"));
}

TEST_F(EngineFixture, UsbInsertLiftsAndRemoveRestores) {
  engine.install(kids_policy());
  const MacAddress m = MacAddress::from_index(1);
  engine.set_tags(kHome, m, {"kids"});
  int changes = 0;
  engine.on_change([&] { ++changes; });

  const auto slot = engine.usb().insert(UsbKeyImage::make_key("parent-key", {}));
  EXPECT_TRUE(engine.domain_allowed(kHome, m, "netflix.com"));
  engine.usb().remove(slot);
  EXPECT_FALSE(engine.domain_allowed(kHome, m, "netflix.com"));
  EXPECT_EQ(changes, 2);
}

TEST_F(EngineFixture, KeyCarriedPoliciesLiveWithInsertion) {
  PolicyDocument p;
  p.id = "guest-block";
  p.who.tags = {"guests"};
  p.block_network = true;
  const MacAddress g = MacAddress::from_index(2);
  engine.set_tags(kHome, g, {"guests"});

  const auto slot = engine.usb().insert(UsbKeyImage::make_key("", {p}));
  ASSERT_NE(slot, 0u);
  EXPECT_FALSE(engine.network_allowed(kHome, g));
  EXPECT_EQ(engine.policies().size(), 1u);

  engine.usb().remove(slot);
  EXPECT_TRUE(engine.network_allowed(kHome, g));
  EXPECT_TRUE(engine.policies().empty());
}

TEST_F(EngineFixture, TagsCaseInsensitive) {
  // Upper- and lower-case text parse to one device.
  engine.install(kids_policy());
  engine.set_tags(kHome, mac("AA:BB:CC:DD:EE:02"), {"kids"});
  EXPECT_FALSE(
      engine.domain_allowed(kHome, mac("aa:bb:cc:dd:ee:02"), "netflix.com"));
}

TEST_F(EngineFixture, TagsBelongToOneHome) {
  // The same MAC behind another datapath is another device: a tag set in
  // one home neither restricts nor shows up in the other.
  engine.install(kids_policy());
  const MacAddress m = MacAddress::from_index(1);
  engine.set_tags(kHome, m, {"kids"});
  EXPECT_FALSE(engine.domain_allowed(kHome, m, "netflix.com"));
  EXPECT_TRUE(engine.domain_allowed(kHome + 1, m, "netflix.com"));
  EXPECT_TRUE(engine.tags_of(kHome + 1, m).empty());
  EXPECT_EQ(engine.tags_of(kHome, m), std::vector<std::string>{"kids"});
}

}  // namespace
}  // namespace hw::policy
