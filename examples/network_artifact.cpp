// Figure 2 scenario: the LED network artifact in each of its three modes.
//   Mode 1 — carry the artifact around the house: lit LEDs follow RSSI.
//   Mode 2 — animation speed follows total bandwidth vs the day's peak.
//   Mode 3 — lease grants flash green, releases blue, retry storms red.
#include <cstdio>

#include "ui/artifact.hpp"
#include "workload/scenario.hpp"

int main() {
  using namespace hw;

  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  workload::HomeScenario home(config);
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  home.wait_all_bound();

  auto* artifact_dev = home.device("network-artifact");
  ui::NetworkArtifact artifact(
      home.router().db(),
      {.led_count = 12, .own_mac = artifact_dev->host->mac().to_string()});

  // --- Mode 1: walk the artifact from beside the AP to the far bedroom.
  std::printf("Mode 1 (signal strength), walking away from the AP:\n");
  artifact.set_mode(ui::ArtifactMode::SignalStrength);
  for (double step = 0; step <= 10; ++step) {
    home.router().move_device(artifact_dev->host->mac(),
                              sim::Position{5 + step * 3.0, 5});
    home.run_for(2 * kSecond);  // let the Links table pick up fresh samples
    auto frame = artifact.render();
    std::printf("  %4.0fm from AP  [%s]\n", step * 3.0,
                ui::NetworkArtifact::to_string(frame).c_str());
  }

  // --- Mode 2: idle network, then the whole family streams.
  std::printf("\nMode 2 (bandwidth animation):\n");
  artifact.set_mode(ui::ArtifactMode::Bandwidth);
  home.run_for(5 * kSecond);
  auto idle_frame = artifact.render();
  std::printf("  idle     [%s]\n",
              ui::NetworkArtifact::to_string(idle_frame).c_str());
  home.start_apps_all();
  home.run_for(20 * kSecond);
  for (int i = 0; i < 4; ++i) {
    home.run_for(250 * kMillisecond);
    auto frame = artifact.render();
    std::printf("  busy     [%s]\n", ui::NetworkArtifact::to_string(frame).c_str());
  }

  // --- Mode 3: a guest joins (green flash) and later leaves (blue flash).
  std::printf("\nMode 3 (DHCP events):\n");
  artifact.set_mode(ui::ArtifactMode::Events);
  const auto idx = home.add_device({"guest-phone", workload::DeviceKind::Phone,
                                    sim::Position{10, 2}});
  home.permit("guest-phone");
  home.devices()[idx].host->start_dhcp();
  home.run_for(3 * kSecond);
  std::printf("  after guest joins   [%s]\n",
              ui::NetworkArtifact::to_string(artifact.render()).c_str());
  home.devices()[idx].host->release_dhcp();
  home.run_for(3 * kSecond);
  // Drain the green join flash, then the blue release flash shows.
  for (int i = 0; i < 6; ++i) {
    auto frame = artifact.render();
    std::printf("  event frame %d       [%s]\n", i,
                ui::NetworkArtifact::to_string(frame).c_str());
  }
  home.stop_apps_all();
  return 0;
}
