// Figure 3 regeneration: the situated DHCP control interface. Replays a
// device-admission session and measures the latency from each user decision
// (drag to permitted/denied) to network-level enforcement.
#include <cstdio>

#include "ui/control_board.hpp"
#include "workload/scenario.hpp"

using namespace hw;

int main() {
  std::printf("=== Figure 3: simple control interface ===\n\n");

  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::Pending;
  config.seed = 3;
  workload::HomeScenario home(config);
  home.start();

  ui::DhcpControlBoard board(home.router().control_api());

  // A parade of devices appears over the evening.
  const std::vector<std::pair<std::string, std::string>> arrivals = {
      {"toms-mac-air", "Tom's Mac Air"},
      {"kates-phone", "Kate's phone"},
      {"mystery-device", ""},
      {"kids-console", "Kids' console"},
  };
  for (const auto& [name, _] : arrivals) {
    home.add_device({name, workload::DeviceKind::Phone, sim::Position{6, 6}});
  }
  for (auto& d : home.devices()) d.host->start_dhcp();
  home.run_for(3 * kSecond);

  board.refresh();
  std::printf("-- board after the devices appear --\n%s\n",
              board.render().c_str());

  // The user names and permits the known devices, measuring decision→lease.
  std::printf("-- decision -> enforcement latency --\n");
  std::printf("%-18s %-12s %16s\n", "device", "decision", "latency[ms]");
  for (const auto& [name, label] : arrivals) {
    auto* dev = home.device(name);
    const std::string mac = dev->host->mac().to_string();
    if (!label.empty()) board.set_label(mac, label);

    const bool permit = name != "mystery-device";
    const Timestamp decided = home.loop().now();
    if (permit) {
      board.drag_to_permitted(mac);
      // Wait until the device holds a lease.
      while (!dev->host->ip() &&
             home.loop().now() < decided + 30 * kSecond) {
        home.run_for(50 * kMillisecond);
      }
      std::printf("%-18s %-12s %16.1f\n", name.c_str(), "permit",
                  static_cast<double>(home.loop().now() - decided) / 1000.0);
    } else {
      board.drag_to_denied(mac);
      // Enforcement is immediate at the server; the device learns on its
      // next DHCP exchange (NAK).
      const auto& naks = home.router().dhcp().stats().naks;
      const std::uint64_t naks_before = naks.value();
      dev->host->start_dhcp();
      while (naks.value() == naks_before &&
             home.loop().now() < decided + 30 * kSecond) {
        home.run_for(50 * kMillisecond);
      }
      std::printf("%-18s %-12s %16.1f\n", name.c_str(), "deny",
                  static_cast<double>(home.loop().now() - decided) / 1000.0);
    }
  }

  board.refresh();
  std::printf("\n-- board after the user's decisions --\n%s\n",
              board.render().c_str());

  // Revocation latency: deny an already-admitted device.
  auto* tom = home.device("toms-mac-air");
  const Timestamp revoke_at = home.loop().now();
  board.drag_to_denied(tom->host->mac().to_string());
  home.run_for(100 * kMillisecond);
  std::printf("-- revocation --\n");
  std::printf("flows for the device revoked within %.1f ms of the drag\n",
              static_cast<double>(home.loop().now() - revoke_at) / 1000.0);

  const auto& stats = home.router().dhcp().stats();
  std::printf("\nDHCP server totals: %llu discovers / %llu offers / %llu acks "
              "/ %llu naks / %llu silenced-pending\n",
              static_cast<unsigned long long>(stats.discovers.value()),
              static_cast<unsigned long long>(stats.offers.value()),
              static_cast<unsigned long long>(stats.acks.value()),
              static_cast<unsigned long long>(stats.naks.value()),
              static_cast<unsigned long long>(stats.ignored_pending.value()));
  std::printf("\nshape checks: permit latency ~ one DHCP retry interval (<= ~4 s);"
              "\n  deny/revocation take effect on the next transaction.\n");
  return 0;
}
