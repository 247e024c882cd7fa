// Cross-home roaming on one shared controller: a phone walks next door. One
// HomeworkRouter serves every home datapath; in each home pair (2p, 2p+1)
// the odd home's roamer device detaches mid-run, re-associates with the even
// home's datapath, re-DHCPs behind the new dpid and talks to a local peer
// there. Promises: the roamer re-binds at the destination (rebind latency is
// the recovery series), the origin home's (dpid, mac) state is untouched,
// the roamer's unique MAC never leaks outside its pair, and every home ends
// bound and converged.
#pragma once

#include <memory>

#include "scenario/scenario.hpp"

namespace hw::scenario {

class RoamingScenario final : public Scenario {
 public:
  struct Params {
    std::size_t homes = 8;  // 4 roaming pairs
    std::size_t devices_per_home = 2;
    Timestamp roam_at = 3500 * kMillisecond;
  };

  RoamingScenario(Config config, Params params);
  explicit RoamingScenario(Config config = default_config())
      : RoamingScenario(config, Params{}) {}
  ~RoamingScenario() override;

  static Config default_config() {
    Config config;
    config.duration = 6 * kSecond;
    return config;
  }

  [[nodiscard]] const Params& params() const { return params_; }

  [[nodiscard]] Report run() override;

 private:
  /// The loop, router, devices and fault injector of the last run. They
  /// outlive run() so their instruments stay in the registry to be read.
  struct World;

  Params params_;
  std::unique_ptr<World> world_;
};

}  // namespace hw::scenario
