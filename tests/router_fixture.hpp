// Shared test fixture: a booted HomeworkRouter with helper methods to attach
// devices and drive them through admission, used by the module-level and
// integration suites.
#pragma once

#include <gtest/gtest.h>

#include "homework/router.hpp"

namespace hw::homework::testing {

struct RouterFixture : ::testing::Test {
  explicit RouterFixture(HomeworkRouter::Config config = default_config())
      : rng(7), router(loop, rng, std::move(config)) {
    router.upstream().add_zone_entry("www.example.com",
                                     Ipv4Address{93, 184, 216, 34});
    router.upstream().add_zone_entry("www.facebook.com",
                                     Ipv4Address{31, 13, 72, 1});
    router.upstream().add_zone_entry("video.netflix.com",
                                     Ipv4Address{45, 57, 3, 1});
    router.start();
  }

  static HomeworkRouter::Config default_config() {
    HomeworkRouter::Config config;
    config.admission = DeviceRegistry::AdmissionDefault::Pending;
    return config;
  }

  /// Creates a host and attaches it (wired unless a position is given).
  sim::Host& make_device(const std::string& name,
                         std::optional<sim::Position> position = std::nullopt) {
    sim::Host::Config hc;
    hc.name = name;
    hc.mac = MacAddress::from_index(next_mac_++);
    hosts_.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    attachments_.push_back(router.attach_device(*hosts_.back(), position));
    return *hosts_.back();
  }

  /// The home every device of this fixture is attached to.
  [[nodiscard]] nox::DatapathId dpid() { return router.datapath().id(); }
  /// The registry record of `host` in that home, or nullptr.
  [[nodiscard]] const DeviceRecord* record(const sim::Host& host) {
    return router.registry().find(dpid(), host.mac());
  }

  void permit(const sim::Host& host) {
    router.registry().set_state(dpid(), host.mac(), DeviceState::Permitted,
                                loop.now());
  }
  void deny(const sim::Host& host) {
    router.registry().set_state(dpid(), host.mac(), DeviceState::Denied,
                                loop.now());
  }

  /// Runs DHCP to completion for a permitted host; returns its address.
  std::optional<Ipv4Address> bind(sim::Host& host, Duration budget = 5 * kSecond) {
    host.start_dhcp();
    const Timestamp deadline = loop.now() + budget;
    while (loop.now() < deadline && !host.ip()) {
      loop.run_for(50 * kMillisecond);
    }
    return host.ip();
  }

  sim::Host& admitted_device(const std::string& name,
                             std::optional<sim::Position> position = std::nullopt) {
    sim::Host& host = make_device(name, position);
    permit(host);
    EXPECT_TRUE(bind(host).has_value()) << name << " failed to lease";
    return host;
  }

  /// Device→router link of the most recently attached device — a raw frame
  /// injection point for spoofed-traffic tests.
  [[nodiscard]] sim::DuplexLink* last_link() {
    return attachments_.empty() ? nullptr : attachments_.back().link;
  }

  sim::EventLoop loop;
  Rng rng;
  HomeworkRouter router;

 private:
  std::vector<std::unique_ptr<sim::Host>> hosts_;
  std::vector<HomeworkRouter::Attachment> attachments_;
  std::uint32_t next_mac_ = 1;
};

}  // namespace hw::homework::testing
