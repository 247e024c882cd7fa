// Traffic applications and the home scenario builder.
#include <gtest/gtest.h>

#include "workload/scenario.hpp"

namespace hw::workload {
namespace {

TEST(AppProfiles, PresetsMatchProtocolExpectations) {
  EXPECT_TRUE(AppProfile::web("x").tcp);
  EXPECT_EQ(AppProfile::web("x").dst_port, 80);
  EXPECT_FALSE(AppProfile::voip("x").tcp);
  EXPECT_EQ(AppProfile::voip("x").dst_port, 5060);
  EXPECT_FALSE(AppProfile::gaming("x").tcp);
  EXPECT_EQ(AppProfile::bulk("x").dst_port, 443);
  EXPECT_EQ(AppProfile::streaming("x").dst_port, 1935);
  EXPECT_EQ(AppProfile::email("x").dst_port, 993);
}

struct ScenarioFixture : ::testing::Test {
  static HomeScenario::Config config() {
    HomeScenario::Config c;
    c.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
    c.seed = 99;
    return c;
  }
  ScenarioFixture() : home(config()) {}
  HomeScenario home;
};

TEST_F(ScenarioFixture, StandardHomeBindsEverything) {
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  EXPECT_TRUE(home.wait_all_bound());
  EXPECT_EQ(home.devices().size(), 6u);
  for (auto& d : home.devices()) {
    EXPECT_TRUE(d.host->ip().has_value()) << d.name;
  }
  // Unique addresses.
  std::set<std::uint32_t> ips;
  for (auto& d : home.devices()) ips.insert(d.host->ip()->value());
  EXPECT_EQ(ips.size(), 6u);
}

TEST_F(ScenarioFixture, AppsGenerateClassifiedTraffic) {
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  ASSERT_TRUE(home.wait_all_bound());
  home.start_apps_all();
  home.run_for(30 * kSecond);
  home.stop_apps_all();

  // The TV streams; the laptop browses; both show up with the right labels.
  auto rs = home.router().db().query(
      "SELECT app, sum(bytes) FROM Flows GROUP BY app");
  ASSERT_TRUE(rs.ok());
  std::map<std::string, std::int64_t> by_app;
  for (const auto& row : rs.value().rows) {
    by_app[row[0].as_text()] = row[1].as_int();
  }
  EXPECT_GT(by_app.count("streaming"), 0u);
  EXPECT_GT(by_app.count("web"), 0u);
  EXPECT_GT(by_app["streaming"], 0);

  // Per-app requests were actually sent by the app objects.
  auto* tv = home.device("living-room-tv");
  ASSERT_NE(tv, nullptr);
  ASSERT_FALSE(tv->apps.empty());
  EXPECT_TRUE(tv->apps[0]->resolved());
  EXPECT_GT(tv->apps[0]->stats().requests_sent.value(), 0u);
}

TEST_F(ScenarioFixture, DeterministicAcrossRuns) {
  auto run_once = [] {
    HomeScenario home(config());
    home.populate_standard_home();
    home.start();
    home.start_dhcp_all();
    home.wait_all_bound();
    home.start_apps_all();
    home.run_for(20 * kSecond);
    home.stop_apps_all();
    auto rs = home.router().db().query(
        "SELECT device, sum(bytes) FROM Flows GROUP BY device");
    std::string out = rs.ok() ? rs.value().to_string() : "error";
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(ScenarioFixture, BlockedAppRetriesNotCrashes) {
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  ASSERT_TRUE(home.wait_all_bound());

  // Block facebook for everyone, then start apps: the phone's facebook app
  // gets NXDOMAIN and keeps retrying without wedging the loop.
  policy::PolicyDocument p;
  p.id = "no-facebook";
  for (auto& d : home.devices()) p.who.macs.push_back(d.host->mac().to_string());
  p.sites.kind = policy::SiteRuleKind::Block;
  p.sites.domains = {"*.facebook.com"};
  home.router().policy().install(std::move(p));

  home.start_apps_all();
  home.run_for(30 * kSecond);
  auto* phone = home.device("kates-phone");
  bool some_failure = false;
  for (auto& app : phone->apps) {
    if (app->stats().dns_failures.value() > 0) some_failure = true;
  }
  EXPECT_TRUE(some_failure);
  EXPECT_GT(home.router().dns().stats().blocked.value(), 0u);
  home.stop_apps_all();
}

TEST_F(ScenarioFixture, DeviceLookupByName) {
  home.populate_standard_home();
  EXPECT_NE(home.device("printer"), nullptr);
  EXPECT_EQ(home.device("toaster"), nullptr);
  EXPECT_EQ(home.device("printer")->kind, DeviceKind::Printer);
}

}  // namespace
}  // namespace hw::workload
