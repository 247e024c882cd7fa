// Fleet simulator: run thousands of independent homes in parallel on a
// fixed-size worker pool. Each home is a complete per-home stack — its own
// sim::EventLoop, HomeworkRouter, hwdb measurement plane, device population
// and (optionally) a scripted FaultPlan — built from a seed derived from the
// fleet seed with a SplitMix64 step, so home k always replays the same world
// no matter which worker picks it up or in what order.
//
// Isolation model: every home gets its own telemetry::MetricRegistry,
// installed as the worker thread's scoped registry for the home's whole
// lifetime, so every instrument down to per-host and per-link cells lands in
// that home's registry and homes never contend on shared counters. The only
// cross-thread structure is the pre-sized results vector; each slot is
// written by exactly one worker and the join provides the happens-before for
// the aggregation pass.
//
// Determinism contract: per-home results depend only on the home seed (the
// simulation runs on a virtual clock with seeded randomness), and fleet-wide
// aggregation always iterates homes in home-id order, so the merged
// non-histogram telemetry is bit-identical for a given fleet seed regardless
// of worker-pool size. Histogram series time wall-clock nanoseconds and are
// therefore merged but excluded from determinism comparisons.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "residency/profile.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"
#include "util/types.hpp"

namespace hw::fleet {

struct FleetConfig {
  /// Number of independent homes to simulate.
  std::size_t homes = 100;
  /// Worker threads; 0 means one per hardware thread. Never more than homes.
  std::size_t threads = 1;
  /// Fleet seed; home k runs with seed splitmix64(seed ^ k-mix).
  std::uint64_t seed = 1;
  /// Virtual time each home simulates.
  Duration duration = 30 * kSecond;
  /// Devices attached per home (kinds and positions derive from the seed).
  std::size_t devices_per_home = 3;
  /// Start each device's application mix once leases are bound.
  bool run_apps = true;
  /// Arm a per-home FaultPlan (windows and intensities derive from the seed).
  bool chaos = false;

  /// Periodic whole-home checkpoints. Captures land at
  /// k * checkpoint_interval + HomeworkRouter::kBootSettle — past the
  /// integer-second module timer ticks, so no echo probe or RPC exchange
  /// straddles the image.
  bool checkpoints = false;
  Duration checkpoint_interval = 5 * kSecond;

  /// Kill this home's worker at kill_at (virtual time) and resume it from
  /// its last periodic checkpoint. With apps and chaos off, the resumed
  /// home's non-histogram telemetry at `duration` is bit-identical to an
  /// uninterrupted run; apps re-arm their traffic timers from the resume
  /// point and chaos plans drop already-finished windows, so either makes
  /// the resume behavioural rather than bit-exact. Requires checkpoints.
  std::optional<std::size_t> kill_home;
  Timestamp kill_at = 0;
};

/// Everything harvested from one finished home, on the worker that ran it.
struct HomeResult {
  std::size_t home_id = 0;
  std::uint64_t seed = 0;

  /// Non-histogram telemetry (name -> summed counter/gauge value). The
  /// deterministic view; diffing this across runs is the fleet's replay test.
  std::map<std::string, double> scalars;
  /// Raw histogram state per series (mergeable; wall-clock latencies).
  std::map<std::string, telemetry::HistogramState> histograms;

  // Scenario verdict.
  std::size_t devices = 0;
  std::size_t devices_bound = 0;   // hold a DHCP lease at end of run
  bool all_bound = false;
  bool fail_safe_at_end = false;   // datapath stuck in fail-safe
  bool inserts_exactly_once = false;  // no hwdb seq applied twice, acks subset
  std::uint64_t inserts_acked = 0;
  std::uint64_t inserts_applied = 0;
  std::size_t flow_entries = 0;
  sim::FaultInjectorStats faults;

  /// Frames carried on device links (the fleet's packet-throughput figure).
  std::uint64_t frames = 0;

  /// Wall-clock cost of this home (excluded from determinism comparisons).
  double wall_ms = 0.0;

  [[nodiscard]] bool ok() const {
    return all_bound && !fail_safe_at_end && inserts_exactly_once;
  }
};

/// Distribution of one telemetry series across homes.
struct SeriesStat {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::size_t homes = 0;  // homes reporting the series
};

struct FleetResult {
  /// Per-home results, sorted by home_id.
  std::vector<HomeResult> homes;
  /// Counter/gauge sums across all homes (accumulated in home-id order).
  std::map<std::string, double> scalar_totals;
  /// Bucket-merged histogram state across all homes.
  std::map<std::string, telemetry::HistogramState> histograms;
  /// Per-series distribution (min/median/max across homes).
  std::map<std::string, SeriesStat> series;

  std::size_t homes_ok = 0;
  std::uint64_t total_frames = 0;
  std::size_t threads_used = 0;
  double wall_ms = 0.0;

  [[nodiscard]] double homes_per_sec() const {
    return wall_ms <= 0.0 ? 0.0 : static_cast<double>(homes.size()) * 1e3 / wall_ms;
  }
  [[nodiscard]] double frames_per_sec() const {
    return wall_ms <= 0.0 ? 0.0 : static_cast<double>(total_frames) * 1e3 / wall_ms;
  }
};

/// Runs a fleet described by FleetConfig on a worker pool and merges the
/// per-home results. run() may be called repeatedly (each call spawns and
/// joins its own pool); a FleetRunner holds no state between runs.
class FleetRunner {
 public:
  explicit FleetRunner(FleetConfig config);

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  /// The shared immutable per-fleet tables (seeds, device populations) every
  /// home reads instead of re-deriving.
  [[nodiscard]] const std::shared_ptr<const residency::FleetProfile>& profile()
      const {
    return profile_;
  }

  /// Seed for home `home_id` under fleet seed `fleet_seed` (SplitMix64 over
  /// the fleet seed advanced past the home id — decorrelates neighbouring
  /// homes even for small fleet seeds). Delegates to
  /// residency::FleetProfile::home_seed, the one shared derivation.
  [[nodiscard]] static std::uint64_t home_seed(std::uint64_t fleet_seed,
                                               std::size_t home_id);

  /// The scripted fault plan home `seed` runs under when chaos is on. Public
  /// so tests can assert plans differ across homes and replay one home.
  [[nodiscard]] static sim::FaultPlan chaos_plan(std::uint64_t seed,
                                                 Duration duration);

  /// Simulates one home start-to-finish on the calling thread, under its own
  /// metric registry. Exposed for tests and single-home debugging.
  [[nodiscard]] HomeResult run_home(std::size_t home_id) const;

  /// Runs the whole fleet on `config.threads` workers.
  [[nodiscard]] FleetResult run() const;

 private:
  /// One life of a home: fresh from t=0 when `resume` is null, or restored
  /// from `resume` (loop origin = captured_at - kBootSettle, boot, restore,
  /// re-arm phase-aligned driver timers). Runs to `end_at` and harvests.
  /// When `checkpoint_out` is non-null the coordinator's last image (if any)
  /// is copied out for the next life.
  [[nodiscard]] HomeResult run_life(
      std::size_t home_id, std::uint64_t seed,
      const snapshot::SnapshotImage* resume, Timestamp end_at,
      std::optional<snapshot::SnapshotImage>* checkpoint_out) const;

  FleetConfig config_;
  std::shared_ptr<const residency::FleetProfile> profile_;
};

}  // namespace hw::fleet
