// Adversarial scenario library: seeded hostile workloads paired with
// machine-checked invariants, turning the home/fleet simulator into a
// correctness harness (ROADMAP item 5). Where FaultPlan scripts *failures*
// (lossy links, severed channels), a Scenario scripts an *attacker* — DHCP
// pool starvation, flow-table exhaustion, IoT swarms, guest flash crowds,
// cross-home roaming — and then holds the platform to explicit promises
// ("no legitimate lease lost", "the datapath never wedges after TableFull",
// "reconcile converges post-attack") evaluated against telemetry and
// registry state at the end of the run.
//
// Determinism contract: a scenario draws randomness only from its seeded
// Rng and the virtual clock, so a (seed, params) pair replays the same
// attack — and produces the same non-histogram telemetry fingerprint — on
// every run. Recovery latencies are virtual time, so p50/p99 are
// deterministic too.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/fault_injector.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"
#include "util/types.hpp"
#include "workload/scenario.hpp"

namespace hw::scenario {

/// One machine-checked promise. `held` is the verdict; `detail` carries the
/// observed numbers so a failing invariant explains itself.
struct Invariant {
  std::string name;
  bool held = false;
  std::string detail;
};

/// The outcome of one scenario run: the verdicts plus the attack/recovery
/// series the bench reports (attack throughput sustained, recovery p50/p99).
struct Report {
  std::string scenario;
  std::uint64_t seed = 0;
  std::vector<Invariant> invariants;
  /// Hostile events injected (spoofed frames, hostile flows, API bursts…).
  std::uint64_t attack_events = 0;
  /// Virtual seconds the attack window spanned.
  double attack_seconds = 0.0;
  /// Virtual-time recovery latencies (µs): how long after the attack (or
  /// after a legitimate action during it) the platform served the victim.
  std::vector<Duration> recovery_samples;

  [[nodiscard]] bool ok() const;
  /// Attack events per virtual second of attack window.
  [[nodiscard]] double attack_rate() const;
  [[nodiscard]] Duration recovery_p50() const;
  [[nodiscard]] Duration recovery_p99() const;
  /// Human-readable verdict block (one line per invariant).
  [[nodiscard]] std::string to_string() const;
};

/// Base of every scenario: a name, a seed, a duration and an optional chaos
/// plan (so hostile workloads compose with PR 3 fault injection — the suite
/// must not assume a fault-free channel). Subclasses implement run().
class Scenario {
 public:
  struct Config {
    std::uint64_t seed = 2011;
    /// Total virtual runtime, including the post-attack recovery tail.
    Duration duration = 30 * kSecond;
    /// Chaos composition: armed on the scenario's fault surfaces before the
    /// attack starts. Windows and the attack share the virtual clock.
    std::optional<sim::FaultPlan> faults;
  };

  Scenario(std::string name, Config config);
  virtual ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Builds the world, drives the hostile workload to completion and
  /// evaluates the invariants. Deterministic per (config, params) pair.
  [[nodiscard]] virtual Report run() = 0;

 protected:
  /// Scenario-private randomness, derived from the config seed and kept
  /// separate from the home's own stream so the attack schedule does not
  /// perturb legitimate-device draws.
  [[nodiscard]] Rng& attack_rng() { return attack_rng_; }

  /// Counts hostile events into scenario.events and the report.
  void record_attack(std::uint64_t n = 1);
  /// Records a virtual-time recovery latency sample.
  void record_recovery(Duration latency);
  /// Appends a verdict to the report and counts it in scenario.invariants_*.
  void expect(Report& report, std::string name, bool held,
              std::string detail = {});
  /// Fresh report pre-filled with the accumulated attack/recovery series.
  [[nodiscard]] Report make_report();
  void count_run() { metrics_.runs.inc(); }

  Config config_;

 private:
  std::string name_;
  Rng attack_rng_;
  std::uint64_t attack_events_ = 0;
  double attack_seconds_ = 0.0;
  std::vector<Duration> recovery_samples_;

 protected:
  /// Virtual span of the attack window, for the report's rate computation.
  void set_attack_window(Duration start, Duration end);

 private:
  struct Instruments {
    telemetry::Counter runs{"scenario.runs"};
    telemetry::Counter events{"scenario.events"};
    telemetry::Counter invariants_ok{"scenario.invariants_ok"};
    telemetry::Counter invariants_failed{"scenario.invariants_failed"};
    telemetry::Histogram recovery_ns{"scenario.recovery_ns"};
  } metrics_;
};

/// Template-method base for single-home attacks: builds a HomeScenario,
/// wires the chaos injector over the router's fault surfaces and the device
/// links, schedules the hostile workload via drive(), runs the loop to
/// config.duration and hands the report to verify().
class HomeAttackScenario : public Scenario {
 public:
  [[nodiscard]] Report run() final;

 protected:
  using Scenario::Scenario;

  /// The home under attack. Subclasses override to shape the router config
  /// (pool bounds, table capacity, admission default…); the base forces the
  /// scenario seed into the returned config.
  [[nodiscard]] virtual workload::HomeScenario::Config home_config() const;
  /// Populates the home: devices, admission, legitimate workload.
  virtual void populate(workload::HomeScenario& home) = 0;
  /// Schedules the hostile workload on the home's loop (the attack itself).
  virtual void drive(sim::EventLoop& loop) = 0;
  /// Evaluates invariants against telemetry and registry state at the end.
  virtual void verify(Report& report) = 0;

  [[nodiscard]] workload::HomeScenario& home() { return *home_; }
  [[nodiscard]] homework::HomeworkRouter& router() { return home_->router(); }
  /// Injects a raw frame toward the router through `device`'s link — the
  /// attacker rides a real (possibly chaos-degraded) attachment, it does not
  /// get a magic side channel into the datapath.
  void inject(std::size_t device, const Bytes& frame);

 private:
  std::unique_ptr<workload::HomeScenario> home_;
  std::unique_ptr<sim::FaultInjector> faults_;
};

/// A spoofed-MAC DHCPDISCOVER frame as an attacker NIC would emit it
/// (broadcast, 0.0.0.0 source). Shared by the starvation scenario and the
/// DHCP exhaustion regression tests.
[[nodiscard]] Bytes spoofed_discover(MacAddress mac, std::uint32_t xid,
                                     const std::string& hostname = {});

}  // namespace hw::scenario
