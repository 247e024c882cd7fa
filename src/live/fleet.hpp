// LiveFleet: a fleet of independent homes, each a full Figure 5 stack. It
// advances the whole fleet barrier by barrier on a persistent worker pool so
// an operator can observe telemetry, mutate the world and checkpoint it
// *while it executes* (the live-operations plane, docs/liveops.md). A
// run-to-completion fleet is start() + advance_to(duration); a scripted
// fault plan is a schedule of inject_fault mutations submitted before the
// first step.
//
// Execution model: virtual time is quantised into barriers at
// k * kBarrierInterval + HomeworkRouter::kBootSettle. step() runs every home
// to the next barrier (static partition home i -> worker i mod threads, so a
// home's event loop is only ever touched by its owner thread) and applies the
// mutations due at that barrier in mutation-id order. Each home publishes its
// live.home.* gauges from a timer on its own loop at every barrier instant,
// so they follow virtual time even through a wake catch-up. Mutations
// submitted between steps are stamped with the barrier they will land on,
// making every mutated run a deterministic schedule: (seed, mutation log)
// fully determines the run.
//
// Checkpoints are fleet-wide consistent captures: every home's image is
// taken at the same barrier, stamped with a CaptureTag (capture id, member,
// fleet size) so a restore rejects image sets stitched from different
// captures. Capture barriers additionally align to kCheckpointAlign so the
// resumed home's module timers (liveness probes, DHCP sweeps) re-arm on the
// same absolute grid the first life used — the precondition for the
// time-travel contract: resuming a checkpoint and re-applying the logged
// mutation tail reproduces the live run's non-histogram telemetry
// bit-identically (snapshot.* and datapath cache-warmth series excluded —
// see fingerprint()), at any worker-thread count.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "live/mutation.hpp"
#include "residency/image_store.hpp"
#include "residency/profile.hpp"
#include "residency/residency.hpp"
#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"
#include "util/types.hpp"

namespace hw::live {

/// Scripted in-fleet attacker (scenario-style hostile workload) so live runs
/// have something worth watching and mutating: one home hosts a "guest"
/// device that floods spoofed DHCPDISCOVERs (pool pressure) and probes an
/// outside address — the traffic a quarantine mutation measurably blocks.
struct LiveAttack {
  enum class Kind : std::uint8_t { None, DhcpFlood };
  Kind kind = Kind::None;
  /// Home hosting the attacker.
  std::uint32_t home = 0;
  /// First hostile tick. The 13 ms offset keeps the attack grid disjoint
  /// from the barrier grid (10 ms phase) and the resume drain window.
  Timestamp start = 3 * kSecond + 13 * kMillisecond;
  Duration period = 50 * kMillisecond;
  /// Spoofed DISCOVERs per tick.
  std::size_t per_tick = 4;
};

struct LiveConfig {
  std::size_t homes = 4;
  /// Worker threads (clamped to [1, homes]). Homes are statically
  /// partitioned, so thread count never changes per-home execution.
  std::size_t threads = 1;
  std::uint64_t seed = 1;
  std::size_t devices_per_home = 3;
  /// Traffic apps re-arm from the resume point rather than replaying, which
  /// makes resumes behavioural instead of bit-exact — off by default.
  bool run_apps = false;
  LiveAttack attack;
  /// Residency policy: cold homes hibernate to their snapshot images at
  /// checkpoint-aligned barriers and page back on demand — next scheduled
  /// event due, RPC mutation, subscription touch, or operator Wake verb
  /// (docs/residency.md). Default: everything stays resident.
  residency::ResidencyPolicy residency;
  /// How long the DHCP server holds unclaimed offers. The default parks
  /// offers past any run so flood leftovers never straddle a checkpoint;
  /// tests shrink it to watch expiry sweeps fire across hibernation.
  Duration dhcp_offer_hold = 3600 * kSecond;
};

/// A fleet-wide consistent capture: one image per home, all taken at the
/// same barrier. `mutation_id` is the Checkpoint mutation's log id — the
/// replay tail is every logged mutation with a larger id.
struct FleetCheckpoint {
  std::uint64_t capture_id = 0;
  Timestamp captured_at = 0;
  std::uint64_t mutation_id = 0;
  /// Home-id order; images[i] carries CaptureTag{capture_id, i, homes}.
  std::vector<snapshot::SnapshotImage> images;
};

/// Operator-facing view of one home at the last barrier (read from the
/// live.home.* gauges, so no cross-thread touch of the home's loop).
struct LiveHomeStatus {
  std::size_t devices = 0;
  std::size_t devices_bound = 0;
  std::size_t flow_entries = 0;
  std::size_t block_flows = 0;
  std::uint64_t block_drops = 0;
  std::uint64_t attack_sent = 0;
  /// True when the home is paged out; gauges reflect its hibernation time.
  bool hibernated = false;
};

class LiveFleet {
 public:
  /// Barrier spacing (phase kBootSettle).
  static constexpr Duration kBarrierInterval = 250 * kMillisecond;
  /// Capture barriers align to this grid (phase kBootSettle) so a resumed
  /// home's boot origin is congruent to the first life's modulo every module
  /// timer period — see the file comment.
  static constexpr Duration kCheckpointAlign = 5 * kSecond;
  static_assert(kCheckpointAlign % kBarrierInterval == 0,
                "every capture-aligned instant must be a barrier");

  explicit LiveFleet(LiveConfig config,
                     telemetry::MetricRegistry& metrics =
                         telemetry::MetricRegistry::current());
  ~LiveFleet();
  LiveFleet(const LiveFleet&) = delete;
  LiveFleet& operator=(const LiveFleet&) = delete;

  /// Boots every home fresh at t=0. Call exactly one of start()/resume().
  void start();
  /// Boots every home from a checkpoint and loads `tail` (mutations with
  /// ids/applied_at already stamped — the live run's log past the
  /// checkpoint) for deterministic re-application. Rejects image sets whose
  /// capture tags don't form one consistent fleet capture.
  Status resume(const FleetCheckpoint& cp, std::vector<Mutation> tail);

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] const LiveConfig& config() const { return config_; }
  /// Virtual time of the last completed barrier.
  [[nodiscard]] Timestamp now() const { return now_; }
  [[nodiscard]] Timestamp next_barrier() const;
  /// Next capture-eligible barrier (kCheckpointAlign grid).
  [[nodiscard]] Timestamp next_checkpoint_barrier() const;

  /// Queues a mutation; it is stamped (id, applied_at) at the next step().
  /// Returns the prediction: applied_at set to the barrier it will land on
  /// (checkpoints: the next capture-eligible barrier), id still 0.
  Mutation submit(Mutation m);

  /// Advances every home one barrier: ingest queued mutations, run to the
  /// barrier, capture if a checkpoint is due, apply due mutations in id
  /// order. Returns the new now().
  Timestamp step();
  /// Steps until now() >= t.
  void advance_to(Timestamp t);

  /// Every mutation ever ingested, in id order (the replay log).
  [[nodiscard]] const std::vector<Mutation>& log() const { return log_; }
  [[nodiscard]] const std::vector<FleetCheckpoint>& checkpoints() const {
    return checkpoints_;
  }

  // -- Telemetry view (docs/liveops.md) ------------------------------------
  /// One barrier's non-histogram telemetry for one home or the merged
  /// fleet, indexed by series id: value[id] sums every counter and gauge of
  /// the series, flags[id] says whether any of them is live (kPresent) and
  /// whether the series is declared Determinism::Exact (kExact). A series'
  /// instruments share one Determinism: it is declared where the module
  /// builds them.
  struct SeriesValues {
    static constexpr std::uint8_t kPresent = 1;
    static constexpr std::uint8_t kExact = 2;
    std::vector<double> value;
    std::vector<std::uint8_t> flags;

    [[nodiscard]] bool present(std::uint32_t id) const {
      return id < flags.size() && (flags[id] & kPresent) != 0;
    }
  };

  /// The view of one home, or of the fleet merged in home-id order
  /// (bit-identical at any thread count). Built at most once per barrier,
  /// on the first read after step(); valid until the next step(),
  /// refresh_telemetry(), start() or resume(). A hibernated home serves the
  /// values frozen when it paged out.
  [[nodiscard]] const SeriesValues& series(
      std::uint32_t home = kAllHomes) const;
  /// Series id -> name. Ids are dense, assigned the first time a name is
  /// seen, and never reused.
  [[nodiscard]] const std::vector<std::string>& series_names() const {
    return names_;
  }
  /// Every series id in name order (the order frames list values in).
  [[nodiscard]] const std::vector<std::uint32_t>& series_order() const;

  /// The registry of a resident home (nullptr while hibernated): the
  /// instruments series() sums, and the histograms it leaves out. Read it
  /// only between steps, on the driving thread.
  [[nodiscard]] const telemetry::MetricRegistry* registry(
      std::uint32_t home) const;

  /// series() as a name-keyed map: one home's, or the fleet merged.
  [[nodiscard]] std::map<std::string, double> scalars(
      std::uint32_t home = kAllHomes) const;
  /// The determinism fingerprint: the merged scalars of every series
  /// declared telemetry::Determinism::Exact. The others are declared where
  /// their instruments are built: the snapshot.* counters (the replay
  /// restores, the live run doesn't) and the datapath cache-warmth series
  /// (restores cold-start pure lookup caches, so hit accounting differs
  /// while every forwarding outcome stays identical). See docs/liveops.md.
  [[nodiscard]] std::map<std::string, double> fingerprint() const;

  [[nodiscard]] LiveHomeStatus status(std::uint32_t home) const;
  /// MAC of a named device in a home ("" when unknown) — quarantine targets.
  /// Served from the frozen device table while the home is hibernated.
  [[nodiscard]] std::string device_mac(std::uint32_t home,
                                       const std::string& name) const;

  // -- Residency (docs/residency.md) ---------------------------------------
  /// Records an external stimulus for `home` from any thread (operator
  /// subscription, roam partner activity): the home is paged back in at the
  /// next step() and its LRU recency refreshed.
  void touch(std::uint32_t home);
  /// Pages every hibernated home in on its owner worker, catches it up to
  /// now() and refreshes its telemetry, so scalars()/fingerprint() reflect
  /// the current barrier. When now() is on the checkpoint-aligned grid the
  /// home re-hibernates right after the harvest (peak residency stays near
  /// resident + workers); otherwise it stays resident. Call before
  /// comparing fingerprints against an always-resident run.
  void refresh_telemetry();
  [[nodiscard]] const residency::ResidencyManager& residency() const {
    return residency_;
  }
  [[nodiscard]] const residency::ImageStore& image_store() const {
    return store_;
  }
  /// Highest resident-home count observed at any completed barrier (the
  /// density bench's "fixed resident-memory budget" figure).
  [[nodiscard]] std::size_t resident_peak() const { return resident_peak_; }

  /// Time-travel helper: resume `cp` on a fresh replica with `threads`
  /// workers, re-apply the log tail (ids > cp.mutation_id), advance to
  /// `until` and return the replica's fingerprint.
  [[nodiscard]] static Result<std::map<std::string, double>>
  replay_fingerprint(LiveConfig config, const FleetCheckpoint& cp,
                     const std::vector<Mutation>& full_log, Timestamp until,
                     std::size_t threads);

 private:
  struct Home;
  /// What a hibernated home leaves behind for the operator plane: its last
  /// telemetry view and device table, served until the home pages back.
  struct Frozen {
    SeriesValues values;
    std::map<std::string, std::string> device_macs;
    std::size_t device_count = 0;
  };
  /// Worker -> driving-thread staging for one hibernation.
  struct HibernateOut {
    snapshot::SnapshotImage image;
    Frozen frozen;
    Timestamp next_wakeup = residency::ResidencyManager::kNever;
  };

  void start_workers();
  /// Runs job(worker_index) on every worker and waits for all of them; the
  /// mutex/condvar handshake is the happens-before edge for everything the
  /// driving thread reads afterwards. Inline when threads == 1.
  void run_on_workers(const std::function<void(std::size_t)>& job);
  void build_home(std::size_t id, const snapshot::SnapshotImage* resume);
  void apply_mutation(Home& h, const Mutation& m);
  static void update_gauges(Home& h);
  /// Fills `out` with home `h`'s series, walking its instruments through
  /// the home's (instrument -> id) plan; the plan is rebuilt, interning new
  /// names, only when the registry's membership generation moved. Runs on
  /// the home's owner thread.
  void flatten(Home& h, SeriesValues& out) const;
  /// Builds the view of every home and the merged fleet, unless current.
  void build_view() const;
  /// Home `home`'s share of the view: its flattened registry while
  /// resident, its frozen values while hibernated.
  [[nodiscard]] const SeriesValues& home_view(std::size_t home) const;
  /// `flags_mask` selects the series: kPresent for all, kExact for the
  /// fingerprint's share.
  [[nodiscard]] std::map<std::string, double> to_map(
      const SeriesValues& values, std::uint8_t flags_mask) const;
  [[nodiscard]] bool checkpoint_pending_at(Timestamp barrier) const;
  /// Owner-worker half of a hibernation: stamp FTAG, capture, freeze the
  /// operator view, peek the next event, tear the stack down.
  void hibernate_on_worker(std::size_t id, std::uint64_t capture_id);
  /// Driving-thread half: store the image, update records. Returns false
  /// when the worker produced nothing (home wasn't resident).
  bool finish_hibernate(std::size_t id, Timestamp barrier);
  /// Driving-thread record-keeping after a worker woke home `id`.
  void finish_wake(std::size_t id, Timestamp barrier);
  [[nodiscard]] bool aligned_barrier(Timestamp barrier) const;

  LiveConfig config_;
  std::size_t nthreads_ = 1;
  bool started_ = false;
  Timestamp now_ = 0;

  std::vector<std::unique_ptr<Home>> homes_;

  // Residency plane (docs/residency.md). store_/residency_ register their
  // gauges in the fleet-level registry, never in a per-home one, so the
  // determinism fingerprint (merged per-home scalars) stays untouched by
  // residency scheduling.
  std::shared_ptr<const residency::FleetProfile> profile_;
  residency::ImageStore store_;
  residency::ResidencyManager residency_;
  std::vector<std::optional<Frozen>> frozen_;
  std::vector<std::optional<HibernateOut>> hstage_;
  std::vector<std::optional<snapshot::SnapshotImage>> wake_images_;
  std::vector<std::uint64_t> wake_ns_;
  std::mutex touch_mu_;
  std::vector<std::uint32_t> touched_;
  std::size_t resident_peak_ = 0;

  // Telemetry view. It is a cache over the homes' registries, so the const
  // readers build it. Workers intern names while flattening a hibernating
  // home (under intern_mu_); the driving thread reads the rest only between
  // worker jobs.
  mutable std::mutex intern_mu_;
  mutable std::unordered_map<std::string, std::uint32_t> ids_;
  mutable std::vector<std::string> names_;
  mutable std::vector<std::uint32_t> order_;
  mutable std::vector<SeriesValues> resident_values_;
  mutable SeriesValues merged_;
  mutable bool view_fresh_ = false;

  // Mutation plumbing (driving thread, except inbox_ which submit() guards).
  std::mutex inbox_mu_;
  std::vector<Mutation> inbox_;
  std::vector<Mutation> pending_;             // stamped, not yet applied
  std::vector<Mutation> pending_checkpoints_; // stamped, not yet captured
  std::vector<Mutation> log_;
  std::vector<FleetCheckpoint> checkpoints_;
  std::uint64_t next_mutation_id_ = 1;
  std::uint64_t next_capture_id_ = 1;

  // Worker pool (empty when threads == 1; jobs run inline).
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::function<void(std::size_t)> job_;
  std::uint64_t generation_ = 0;
  std::size_t done_ = 0;
  bool shutdown_ = false;

  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : steps{reg, "live.fleet.steps"},
          mutations{reg, "live.fleet.mutations"},
          captures{reg, "live.fleet.captures"},
          resumes{reg, "live.fleet.resumes"} {}
    telemetry::Counter steps;
    telemetry::Counter mutations;
    telemetry::Counter captures;
    telemetry::Counter resumes;
  } metrics_;
};

}  // namespace hw::live
