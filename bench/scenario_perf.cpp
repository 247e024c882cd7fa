// Adversarial scenario bench: runs the five seeded hostile workloads
// (ROADMAP item 5) end to end, reporting the attack throughput each one
// sustained (hostile events per virtual second) and the recovery-latency
// p50/p99 the platform delivered — virtual-time samples, so the latency
// columns are deterministic per seed while wall_ms tracks the simulator's
// real cost.
//
// Every invariant of every scenario must hold; any failure prints the
// scenario's verdict block and exits non-zero, so CI smoke doubles as a
// correctness gate on the attack suite.
//
// Emits BENCH_scenario_perf.json (path overridable with --out) for the CI
// artifact upload.
//
// Usage: scenario_perf [--smoke] [--list] [--out PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "scenario/dhcp_starvation.hpp"
#include "scenario/guest_churn.hpp"
#include "scenario/iot_swarm.hpp"
#include "scenario/roaming.hpp"
#include "scenario/table_exhaustion.hpp"
#include "telemetry/metrics.hpp"

using namespace hw;

namespace {

struct Row {
  std::string name;
  bool ok = false;
  std::uint64_t attack_events = 0;
  double attack_rate = 0.0;  // hostile events / virtual attack second
  double wall_ms = 0.0;
  std::uint64_t recovery_samples = 0;
  std::uint64_t recovery_p50_us = 0;
  std::uint64_t recovery_p99_us = 0;
  std::size_t invariants = 0;
};

/// Runs one scenario under a fresh registry (so scenario runs never bleed
/// counters into each other) and flattens its report into a bench row.
Row run_one(scenario::Scenario& s) {
  const auto t0 = std::chrono::steady_clock::now();
  const scenario::Report report = s.run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  Row row;
  row.name = report.scenario;
  row.ok = report.ok();
  row.attack_events = report.attack_events;
  row.attack_rate = report.attack_rate();
  row.wall_ms = wall_ms;
  row.recovery_samples = report.recovery_samples.size();
  row.recovery_p50_us = static_cast<std::uint64_t>(report.recovery_p50());
  row.recovery_p99_us = static_cast<std::uint64_t>(report.recovery_p99());
  row.invariants = report.invariants.size();
  if (!row.ok) {
    std::fprintf(stderr, "\n%s\n", report.to_string().c_str());
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scenario_perf.json";

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      std::printf("dhcp_starvation    MAC-rotating DISCOVER flood against the "
                  "DHCP scope\n"
                  "table_exhaustion   flow-table fill attack with eviction "
                  "pressure\n"
                  "iot_swarm          hundreds of chatty IoT devices joining "
                  "at once\n"
                  "guest_churn        guest admit/expel churn mid-crowd\n"
                  "roaming            device roams across homes; differential "
                  "thread-count pair\n");
      return 0;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("=== scenario_perf: adversarial workload suite%s ===\n\n",
              smoke ? " (smoke)" : "");
  std::printf("%-18s %3s %10s %12s %9s %8s %10s %10s\n", "scenario", "ok",
              "events", "events/s", "wall_ms", "samples", "p50_us", "p99_us");

  std::vector<Row> rows;
  const auto bench = [&rows](auto make) {
    telemetry::MetricRegistry registry;
    telemetry::ScopedMetricRegistry scoped(registry);
    auto s = make();
    rows.push_back(run_one(*s));
    const Row& r = rows.back();
    std::printf("%-18s %3s %10llu %12.1f %9.1f %8llu %10llu %10llu\n",
                r.name.c_str(), r.ok ? "yes" : "NO",
                static_cast<unsigned long long>(r.attack_events), r.attack_rate,
                r.wall_ms, static_cast<unsigned long long>(r.recovery_samples),
                static_cast<unsigned long long>(r.recovery_p50_us),
                static_cast<unsigned long long>(r.recovery_p99_us));
  };

  bench([] {
    return std::make_unique<scenario::DhcpStarvationScenario>(
        scenario::Scenario::Config{});
  });
  bench([] { return std::make_unique<scenario::TableExhaustionScenario>(); });
  bench([smoke = smoke] {
    scenario::IotSwarmScenario::Params params;
    if (smoke) params.devices = 60;  // same shape, a third of the event load
    return std::make_unique<scenario::IotSwarmScenario>(
        scenario::IotSwarmScenario::default_config(), params);
  });
  bench([] { return std::make_unique<scenario::GuestChurnScenario>(); });
  bench([] { return std::make_unique<scenario::RoamingScenario>(); });

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  bool all_ok = true;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"scenario_perf\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    all_ok = all_ok && r.ok;
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"ok\": %s, "
                 "\"attack_events\": %llu, \"attack_rate_per_s\": %.1f, "
                 "\"wall_ms\": %.1f, \"recovery_samples\": %llu, "
                 "\"recovery_p50_us\": %llu, \"recovery_p99_us\": %llu, "
                 "\"invariants\": %zu}%s\n",
                 r.name.c_str(), r.ok ? "true" : "false",
                 static_cast<unsigned long long>(r.attack_events),
                 r.attack_rate, r.wall_ms,
                 static_cast<unsigned long long>(r.recovery_samples),
                 static_cast<unsigned long long>(r.recovery_p50_us),
                 static_cast<unsigned long long>(r.recovery_p99_us),
                 r.invariants, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!all_ok) {
    std::fprintf(stderr, "FAIL: at least one scenario invariant did not hold\n");
    return 1;
  }
  return 0;
}
