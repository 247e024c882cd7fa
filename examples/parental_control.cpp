// Figure 4 scenario: the paper's canonical policy — "the kids can only use
// Facebook on weekdays after they've finished their homework" — composed in
// the visual policy editor, enforced as per-device network and DNS access
// restrictions, and lifted when a suitably responsible adult inserts the
// USB key.
#include <cstdio>

#include "ui/policy_editor.hpp"
#include "workload/scenario.hpp"

namespace {

void try_resolve(hw::workload::HomeScenario& home, hw::sim::Host& host,
                 const std::string& name) {
  std::string outcome = "(no answer)";
  host.resolve(name, [&](hw::Result<hw::Ipv4Address> r, const std::string&) {
    outcome = r ? "resolved to " + r.value().to_string()
                : "refused (" + r.error().message + ")";
  });
  home.run_for(4 * hw::kSecond);
  std::printf("  %-22s -> %s\n", name.c_str(), outcome.c_str());
}

}  // namespace

int main() {
  using namespace hw;

  workload::HomeScenario::Config config;
  config.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  workload::HomeScenario home(config);
  home.populate_standard_home();
  home.start();
  home.start_dhcp_all();
  home.wait_all_bound();

  auto* console = home.device("kids-console");
  const std::string kids_mac = console->host->mac().to_string();

  // Tag the console as a kids device (metadata via the control API).
  {
    homework::HttpRequest req;
    req.method = "PUT";
    req.path = "/api/devices/" + kids_mac + "/metadata";
    req.body = R"({"name": "Kids console", "tags": ["kids"]})";
    home.router().control_api().handle(req);
  }

  // Compose the cartoon policy and submit it.
  ui::PolicyEditor editor(home.router().control_api());
  const auto policy_doc = editor.kids_facebook_weekdays_example();
  editor.submit(policy_doc);
  std::printf("installed policy: %s\n\n", policy_doc.description.empty()
                                              ? policy_doc.id.c_str()
                                              : policy_doc.description.c_str());

  // The virtual epoch is a Monday 00:00; move to Monday 17:00 (policy hours).
  home.run_for(17 * kHour - home.loop().now() % kDay);

  std::printf("Monday 17:00, policy active, no key inserted:\n");
  try_resolve(home, *console->host, "www.facebook.com");
  try_resolve(home, *console->host, "video.netflix.com");

  std::printf("\nthe TV is not a 'kids' device, so it is unrestricted:\n");
  try_resolve(home, *home.device("living-room-tv")->host, "video.netflix.com");

  // A responsible adult inserts the unlock key — restrictions lift.
  std::printf("\nparent inserts the USB key:\n");
  const auto key = ui::PolicyEditor::make_unlock_key("parent-key");
  const auto slot = home.router().policy().usb().insert(key);
  try_resolve(home, *console->host, "video.netflix.com");

  // The key is removed — restrictions return.
  std::printf("\nparent removes the key:\n");
  home.router().policy().usb().remove(slot);
  try_resolve(home, *console->host, "video.netflix.com");
  try_resolve(home, *console->host, "www.facebook.com");

  const auto& dns_stats = home.router().dns().stats();
  std::printf("\nDNS proxy: %llu queries, %llu blocked, %llu forwarded\n",
              static_cast<unsigned long long>(dns_stats.queries.value()),
              static_cast<unsigned long long>(dns_stats.blocked.value()),
              static_cast<unsigned long long>(dns_stats.forwarded.value()));

  // Epilogue: a gentler policy — instead of blocking, throttle the console
  // to 80 kbit/s so homework-adjacent browsing stays possible but streaming
  // does not. Enforced as an OpenFlow enqueue onto a policing queue.
  std::printf("\n--- bandwidth cap instead of a block ---\n");
  {
    // Retract the site restriction first: the cap *replaces* the block.
    homework::HttpRequest del;
    del.method = "DELETE";
    del.path = "/api/policies/" + policy_doc.id;
    home.router().control_api().handle(del);

    homework::HttpRequest req;
    req.method = "POST";
    req.path = "/api/policies";
    policy::PolicyDocument cap;
    cap.id = "kids-throttle";
    cap.who.tags = {"kids"};
    cap.rate_limit_bps = 80'000;
    req.body = cap.to_json().dump();
    home.router().control_api().handle(req);
  }
  auto measure = [&](const char* label) {
    const Ipv4Address netflix{45, 57, 3, 1};
    const std::uint64_t sent_before = console->host->stats().tx_bytes.value();
    for (int i = 0; i < 300; ++i) {
      console->host->send_udp(netflix, 5000, 1935, 1000);
      home.run_for(10 * kMillisecond);
    }
    const std::uint32_t queue_id = console->host->ip()->value() & 0xffff;
    const auto* q = home.router().datapath().queue_counters(
        home.router().config().uplink_port, queue_id);
    std::printf("  %-18s offered %.0f KB, delivered upstream %.0f KB\n", label,
                static_cast<double>(console->host->stats().tx_bytes.value() -
                                    sent_before) / 1024.0,
                q == nullptr ? -1.0
                             : static_cast<double>(q->tx_bytes) / 1024.0);
  };
  measure("with 80 kb/s cap:");
  std::printf("  (flow counters in hwdb still show the *offered* traffic —\n"
              "   the cap polices at the egress queue)\n");
  return 0;
}
