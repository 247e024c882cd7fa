// Home scenario builder: a router plus a realistic population of family
// devices and upstream services, with helpers to admit devices, start their
// application mixes and run scripted episodes. Every example and bench
// builds on this so figures regenerate from one consistent world.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "workload/apps.hpp"

namespace hw::workload {

enum class DeviceKind { Laptop, Phone, Tablet, Tv, Console, Printer, Artifact };

const char* to_string(DeviceKind kind);

struct DeviceSpec {
  std::string name;
  DeviceKind kind = DeviceKind::Laptop;
  /// Wireless position in the home; nullopt = wired.
  std::optional<sim::Position> position;
};

class HomeScenario {
 public:
  struct Config {
    homework::HomeworkRouter::Config router;
    std::uint64_t seed = 42;
    /// Virtual time the home's clock starts at. A home resumed from a
    /// snapshot is constructed with the capture time so restored absolute
    /// timestamps (leases, flow entries, hwdb rows) stay meaningful.
    Timestamp clock_origin = 0;
  };

  /// `metrics` scopes every instrument the scenario creates (router, hosts,
  /// links, traffic apps); defaults to the calling thread's active registry.
  /// A fleet passes each home's own registry here.
  explicit HomeScenario(Config config,
                        telemetry::MetricRegistry& metrics =
                            telemetry::MetricRegistry::current());
  ~HomeScenario();
  HomeScenario(const HomeScenario&) = delete;
  HomeScenario& operator=(const HomeScenario&) = delete;

  /// Boots the router and registers the standard upstream services.
  void start();

  struct Device {
    std::string name;
    DeviceKind kind;
    std::unique_ptr<sim::Host> host;
    homework::HomeworkRouter::Attachment attachment;
    std::vector<std::unique_ptr<TrafficApp>> apps;
  };

  /// Adds a device (attached but not yet DHCP'd). Returns its index.
  std::size_t add_device(const DeviceSpec& spec);
  /// The family from the paper's figures: Tom's Mac Air, a phone, the TV,
  /// a games console, a wired printer and the network artifact.
  void populate_standard_home();

  /// Admission helpers.
  void permit_all();
  void permit(const std::string& name);
  void start_dhcp(const std::string& name);
  void start_dhcp_all();
  /// Runs the loop until every permitted device holds a lease (or deadline).
  bool wait_all_bound(Duration deadline = 30 * kSecond);

  /// Snapshot resume: every device whose restored registry record is
  /// Permitted with a live lease adopts it silently (bound state + renewal
  /// timer, no DHCP exchange, no on_bound callbacks). Call after restoring
  /// a snapshot into this home.
  void adopt_restored_leases();

  /// Starts the app mix appropriate to each device's kind.
  void start_apps(const std::string& name);
  void start_apps_all();
  void stop_apps_all();

  [[nodiscard]] Device* device(const std::string& name);
  [[nodiscard]] std::vector<Device>& devices() { return devices_; }
  [[nodiscard]] homework::HomeworkRouter& router() { return *router_; }
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] telemetry::MetricRegistry& metrics() { return metrics_; }

  /// Advances virtual time.
  void run_for(Duration d) { loop_.run_for(d); }

 private:
  [[nodiscard]] std::vector<AppProfile> app_mix(DeviceKind kind) const;
  void register_services();

  Config config_;
  telemetry::MetricRegistry& metrics_;
  sim::EventLoop loop_;  // initialized with config_.clock_origin in the ctor
  Rng rng_;
  std::unique_ptr<homework::HomeworkRouter> router_;
  std::vector<Device> devices_;
  std::uint32_t next_mac_index_ = 1;
};

}  // namespace hw::workload
