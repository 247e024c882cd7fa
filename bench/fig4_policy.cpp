// Figure 4 regeneration: the interactive policy interface. Compiles the
// paper's canonical cartoon policy, walks the schedule across the week, and
// drives the USB key insert/remove cycle, verifying the per-device network
// and DNS state flips at each step.
#include <cstdio>

#include "ui/policy_editor.hpp"
#include "workload/scenario.hpp"

using namespace hw;

namespace {

bool resolves(workload::HomeScenario& home, sim::Host& host,
              const std::string& name) {
  bool ok = false;
  host.resolve(name, [&](Result<Ipv4Address> r, const std::string&) {
    ok = r.ok();
  });
  home.run_for(4 * kSecond);
  return ok;
}

void advance_to(workload::HomeScenario& home, Duration day_offset) {
  const Duration into_day = home.loop().now() % kDay;
  Duration target = (home.loop().now() - into_day) + day_offset;
  if (target <= home.loop().now()) target += kDay;
  home.run_for(target - home.loop().now());
}

}  // namespace

int main() {
  std::printf("=== Figure 4: novel interactive policy interface ===\n\n");

  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  config.seed = 4;
  workload::HomeScenario home(config);
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  home.wait_all_bound();

  auto& console = *home.device("kids-console")->host;
  const std::string kids_mac = console.mac().to_string();

  // Panel selections → policy document ("the kids can only use Facebook on
  // weekdays after they've finished their homework").
  {
    homework::HttpRequest req;
    req.method = "PUT";
    req.path = "/api/devices/" + kids_mac + "/metadata";
    req.body = R"({"name": "Kids console", "tags": ["kids"]})";
    home.router().control_api().handle(req);
  }
  ui::PolicyEditor editor(home.router().control_api());
  const auto doc = editor.kids_facebook_weekdays_example();
  editor.submit(doc);
  std::printf("compiled policy '%s':\n%s\n\n", doc.id.c_str(),
              doc.to_json().dump(2).c_str());

  // Schedule sweep: the restriction only bites in the policy window.
  std::printf("-- schedule sweep (kids console) --\n");
  std::printf("%-22s %10s %10s\n", "virtual time", "facebook", "netflix");
  struct Probe {
    const char* label;
    Duration day_offset;
  };
  const Probe probes[] = {
      {"Mon 10:00 (school)", 10 * kHour},
      {"Mon 17:00 (policy)", 17 * kHour},
      {"Mon 22:00 (late)", 22 * kHour},
      {"Sat 17:00 (weekend)", 5 * kDay + 17 * kHour},
  };
  Timestamp base = home.loop().now() - home.loop().now() % kDay;
  for (const auto& probe : probes) {
    const Timestamp target = base + probe.day_offset;
    if (target > home.loop().now()) {
      home.run_for(target - home.loop().now());
    }
    const bool fb = resolves(home, console, "www.facebook.com");
    const bool nf = resolves(home, console, "video.netflix.com");
    std::printf("%-22s %10s %10s\n", probe.label, fb ? "allowed" : "blocked",
                nf ? "allowed" : "blocked");
  }

  // USB mediation cycle at Monday 17:00 next week.
  advance_to(home, 17 * kHour);
  // Make sure it's a weekday; epoch is Monday so day%7 in {0..4} is Mon-Fri.
  while (((home.loop().now() / kDay) % 7) > 4) home.run_for(kDay);

  std::printf("\n-- USB key mediation (weekday 17:00) --\n");
  auto state = [&](const char* phase) {
    const bool nf = resolves(home, console, "video.netflix.com");
    const auto& dns = home.router().dns().stats();
    std::printf("%-28s netflix=%-8s dns_blocked_total=%llu\n", phase,
                nf ? "allowed" : "blocked",
                static_cast<unsigned long long>(dns.blocked.value()));
  };
  state("before key");
  const auto key = ui::PolicyEditor::make_unlock_key("parent-key");
  const Timestamp inserted_at = home.loop().now();
  const auto slot = home.router().policy().usb().insert(key);
  std::printf("  key recognised and policies suspended in %.3f ms (virtual)\n",
              static_cast<double>(home.loop().now() - inserted_at) / 1000.0);
  state("key inserted");
  home.router().policy().usb().remove(slot);
  state("key removed");

  // A forged key must not unlock.
  const auto forged = ui::PolicyEditor::make_unlock_key("kid-forgery");
  const auto forged_slot = home.router().policy().usb().insert(forged);
  state("forged key inserted");
  home.router().policy().usb().remove(forged_slot);

  std::printf("\nshape checks: blocked only in the Mon-Fri 16:00-21:00 window;"
              "\n  genuine key lifts, forged key does not; removal restores.\n");
  return 0;
}
