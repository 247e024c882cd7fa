// Figure 3 scenario: a new device appears, shows up on the situated control
// display as "requesting access", the user interrogates it, supplies
// metadata, and drags it between permitted/denied — each drag exercising the
// control API and taking effect at the DHCP server.
#include <cstdio>

#include "ui/control_board.hpp"
#include "workload/scenario.hpp"

int main() {
  using namespace hw;

  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::Pending;
  workload::HomeScenario home(config);
  home.add_device({"toms-mac-air", workload::DeviceKind::Laptop,
                   sim::Position{8, 3}});
  home.start();

  ui::DhcpControlBoard board(home.router().control_api());

  // The laptop asks for an address; nothing is granted yet.
  home.start_dhcp("toms-mac-air");
  home.run_for(3 * kSecond);
  board.refresh();
  std::printf("%s\n", board.render().c_str());

  auto* tom = home.device("toms-mac-air");
  const std::string mac = tom->host->mac().to_string();

  // The user names the device and drags it to "permitted".
  board.set_label(mac, "Tom's Mac Air");
  board.drag_to_permitted(mac);
  home.run_for(5 * kSecond);  // client retries DISCOVER and now gets a lease
  board.refresh();
  std::printf("after drag to permitted:\n%s\n", board.render().c_str());
  std::printf("laptop address: %s\n\n",
              tom->host->ip() ? tom->host->ip()->to_string().c_str() : "(none)");

  // Later the user changes their mind: drag to denied. The DHCP server NAKs
  // the next renewal and the device loses its lease.
  board.drag_to_denied(mac);
  tom->host->start_dhcp();  // device re-requests, gets NAK
  home.run_for(3 * kSecond);
  board.refresh();
  std::printf("after drag to denied:\n%s\n", board.render().c_str());
  std::printf("laptop address now: %s\n",
              tom->host->ip() ? tom->host->ip()->to_string().c_str() : "(none)");

  const auto& stats = home.router().dhcp().stats();
  std::printf("\nDHCP server: %llu discovers, %llu offers, %llu acks, %llu naks\n",
              static_cast<unsigned long long>(stats.discovers.value()),
              static_cast<unsigned long long>(stats.offers.value()),
              static_cast<unsigned long long>(stats.acks.value()),
              static_cast<unsigned long long>(stats.naks.value()));
  return 0;
}
