// Shared-controller fleet: N home datapaths handshaking over framed stream
// channels into ONE controller event loop — the deployment the paper argues
// for in §4, where an ISP runs the NOX platform for many subscriber homes
// and each home keeps only a dumb OpenFlow switch.
//
// Topology: the fleet is split into `threads` shards. Each shard owns one
// sim::EventLoop, one nox::Controller with one set of Homework modules
// (DHCP, DNS proxy, forwarding) and one DeviceRegistry/PolicyEngine — and
// every home assigned to the shard contributes its own ofp::Datapath
// (dpid = home_id + 1) connected through its own ofp::StreamConnection.
// All controller-side state is keyed by datapath id, so homes that reuse
// the same device MACs and the same RFC1918 addresses (they all do — every
// home hands out 192.168.1.100+ to devices 02:..:01+) stay fully isolated.
//
// Determinism contract: every home runs the same virtual-time schedule and
// draws randomness only from its own seeded Rng, so each home's telemetry
// contribution is independent of which shard ran it and of how homes
// interleave inside a shard's loop. Counters are integer-valued and sum
// exactly in doubles, so the merged non-histogram totals are bit-identical
// across worker-pool sizes. Histograms time wall-clock nanoseconds and are
// merged but excluded from determinism comparisons.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "residency/profile.hpp"
#include "telemetry/metrics.hpp"
#include "util/types.hpp"

namespace hw::fleet {

struct SharedFleetConfig {
  /// Number of homes (one datapath each). Home k gets dpid k + 1.
  std::size_t homes = 16;
  /// Worker threads; each runs one controller shard. 0 = one per hardware
  /// thread. Never more shards than homes.
  std::size_t threads = 1;
  /// Fleet seed; home k draws from
  /// residency::FleetProfile::home_seed(seed, k).
  std::uint64_t seed = 1;
  /// Virtual time each shard simulates.
  Duration duration = 5 * kSecond;
  /// Devices attached per home; identical MACs across homes on purpose.
  std::size_t devices_per_home = 2;
  /// Controller channel: one-way stream latency, per-send jitter, and max
  /// bytes per read (0 = unbounded; small values force frame reassembly).
  Duration channel_latency = 100;
  Duration channel_jitter = 0;
  std::size_t channel_mtu = 0;
  /// After binding, devices exchange UDP with a peer in their own home,
  /// driving proxy-ARP and flow setup through the shared controller.
  bool traffic = true;
  /// Per-dpid goal-state reconciliation: each shard runs a Reconciler and
  /// (re)joins converge through delta rounds instead of flow-setup replay.
  bool reconcile = true;
  /// Divergence workload at `restart_at`: every odd home's datapath
  /// cold-restarts (full divergence — the table is wiped) and every even
  /// home gets an admin re-sync over its intact table (zero divergence).
  bool restart_odd_homes = false;
  Duration restart_at = 3200 * kMillisecond;
  /// Harvest per-home flow rows and leases into SharedHomeStatus (for
  /// differential replay-vs-reconcile comparisons; off by default — the
  /// strings are not part of the fingerprint).
  bool collect_state = false;
  /// Roaming workload: homes are scheduled in PAIRS (2p, 2p+1) on one shard
  /// at any thread count, the odd home's device 0 carries a unique per-pair
  /// MAC (a phone that walks next door), and at roam_at it detaches from the
  /// odd home's datapath, re-associates on a fresh port of the even home's
  /// datapath and re-DHCPs behind the new dpid. The origin home keeps its
  /// own (dpid, mac) state; the destination grants a lease from its own
  /// scope — per-dpid isolation is what the roaming scenario verifies.
  bool roam = false;
  Timestamp roam_at = 3500 * kMillisecond;
};

/// Per-home verdict harvested on the shard that ran it.
struct SharedHomeStatus {
  std::size_t home_id = 0;
  std::uint64_t dpid = 0;
  std::size_t shard = 0;
  std::size_t devices = 0;
  std::size_t devices_bound = 0;  // hold a DHCP lease at end of run
  std::size_t flow_entries = 0;   // datapath flow-table size at end of run
  bool all_bound = false;
  /// Post-run goal-state check: desired state diffed against the home's
  /// final table yields an empty delta. Always true when reconcile is off.
  bool converged = true;
  /// Canonical "match|priority|actions|cookie" rows and "mac|ip" leases
  /// (sorted); only populated when collect_state is set.
  std::vector<std::string> flow_rows;
  std::vector<std::string> leases;
  /// Roam mode: virtual µs from roam_at until the roamer re-bound INTO this
  /// home (0 for homes that received no roamer).
  Duration roam_rebind_us = 0;

  [[nodiscard]] bool ok() const { return all_bound && converged; }
};

struct SharedFleetResult {
  /// Per-home statuses, sorted by home_id.
  std::vector<SharedHomeStatus> homes;
  /// Counter/gauge sums across all shards (the deterministic view).
  std::map<std::string, double> scalar_totals;
  /// Bucket-merged histogram state across shards (wall-clock latencies).
  std::map<std::string, telemetry::HistogramState> histograms;

  std::size_t shards_used = 0;
  std::size_t homes_ok = 0;
  double wall_ms = 0.0;
};

/// Runs a shared-controller fleet on a worker pool and merges per-shard
/// telemetry. Stateless between run() calls.
class SharedFleetRunner {
 public:
  explicit SharedFleetRunner(SharedFleetConfig config)
      : config_(config),
        profile_(residency::FleetProfile::build(config_.seed, config_.homes,
                                                config_.devices_per_home)) {}

  [[nodiscard]] const SharedFleetConfig& config() const { return config_; }

  [[nodiscard]] SharedFleetResult run() const;

 private:
  struct ShardOutcome {
    std::map<std::string, double> scalars;
    std::map<std::string, telemetry::HistogramState> histograms;
    std::vector<SharedHomeStatus> homes;
  };

  /// Simulates shard `shard` of `shards` (homes with home_id % shards ==
  /// shard) start-to-finish on the calling thread, under its own registry.
  [[nodiscard]] ShardOutcome run_shard(std::size_t shard,
                                       std::size_t shards) const;

  SharedFleetConfig config_;
  /// Shared immutable per-fleet tables; shards index home_seeds instead of
  /// re-deriving seeds per home.
  std::shared_ptr<const residency::FleetProfile> profile_;
};

}  // namespace hw::fleet
