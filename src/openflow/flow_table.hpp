// The datapath's flow table: a tuple-space-search classifier. Rules are
// grouped into per-mask subtables (one per distinct wildcard bitmap), each a
// hash map from masked FlowKey to a priority-sorted bucket. A lookup probes
// subtables in descending max-priority order and exits early once the best
// hit outranks every remaining subtable — O(#masks) probes instead of the
// O(#rules) linear scan, the same structure Open vSwitch uses (Pfaff et al.,
// NSDI 2015). Semantics are OpenFlow 1.0 §3: priority-ordered wildcard
// matching with idle/hard timeouts and per-entry counters.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "openflow/actions.hpp"
#include "openflow/flow_key.hpp"
#include "openflow/match.hpp"
#include "openflow/messages.hpp"
#include "snapshot/snapshottable.hpp"
#include "telemetry/metrics.hpp"
#include "util/types.hpp"

namespace hw::ofp {

struct FlowEntry {
  Match match;
  std::uint16_t priority = 0x8000;
  ActionList actions;
  std::uint64_t cookie = 0;
  std::uint16_t idle_timeout = 0;  // seconds; 0 = never
  std::uint16_t hard_timeout = 0;  // seconds; 0 = never
  bool send_flow_removed = false;

  Timestamp install_time = 0;
  Timestamp last_used = 0;
  std::uint64_t packet_count = 0;
  std::uint64_t byte_count = 0;
  // Insertion order, kept across replaces. Lookup breaks priority ties in
  // favour of the earliest-installed entry, exactly like a linear scan with
  // a strict "better priority" comparison would.
  std::uint64_t seq = 0;
};

/// Result of applying a FlowMod.
enum class FlowModResult {
  Added,
  Modified,
  Deleted,
  Overlap,   // rejected: OFPFF_CHECK_OVERLAP and an overlapping entry exists
  TableFull,
  NoMatch,   // modify/delete matched nothing (not an error per spec)
};

class FlowTable final : public snapshot::Snapshottable {
 public:
  explicit FlowTable(std::size_t capacity = 4096,
                     telemetry::MetricRegistry& metrics =
                         telemetry::MetricRegistry::current())
      : capacity_(capacity), metrics_(metrics) {}

  /// Applies a flow-mod at time `now`. Removed entries (for DELETE) are
  /// appended to `removed` so the datapath can emit flow-removed messages.
  /// An ADD moves the mod's actions into the new entry; pass an rvalue to
  /// install a decoded FlowMod without copying its action list.
  FlowModResult apply(FlowMod mod, Timestamp now,
                      std::vector<FlowEntry>* removed = nullptr);

  /// The entry with exactly this match pattern and priority (what an ADD
  /// replaces, spec §4.6), or nullptr.
  [[nodiscard]] FlowEntry* find_strict(const Match& match,
                                       std::uint16_t priority);

  /// Highest-priority entry covering the packet's exact-match fields, or
  /// nullptr. Updates per-entry counters and refreshes last_used — also for
  /// zero-length packets, which still reset the idle timeout (OF 1.0 §3.4
  /// counts packets, not bytes). The FlowKey overload is the fast path; the
  /// Match overload flattens and delegates.
  FlowEntry* lookup(const FlowKey& key, Timestamp now, std::size_t bytes);
  FlowEntry* lookup(const Match& pkt, Timestamp now, std::size_t bytes);
  /// Read-only lookup sharing the exact matching code path with lookup(),
  /// minus every counter update.
  [[nodiscard]] const FlowEntry* peek(const FlowKey& key) const;
  [[nodiscard]] const FlowEntry* peek(const Match& pkt) const;

  /// Counter bookkeeping for a hit served out of the datapath's microflow
  /// cache: the side effects of lookup() without re-running the classifier.
  /// Untimed: lookup_ns covers classifier lookups only, since two clock
  /// reads would cost more than the hit itself.
  void record_hit(FlowEntry& entry, Timestamp now, std::size_t bytes);

  /// Removes entries whose idle/hard timeout has fired by `now`; returns
  /// them together with the timeout reason. With `suspend_idle` only hard
  /// timeouts fire — the datapath's fail-safe mode keeps established flows
  /// alive while the controller (which would re-install them) is dead.
  std::vector<std::pair<FlowEntry, FlowRemovedReason>> expire(
      Timestamp now, bool suspend_idle = false);

  /// Drops every entry without emitting flow-removed records (a datapath
  /// cold restart losing its volatile state).
  void clear();

  /// Entries matching a stats-request filter (match cover + out_port),
  /// in descending priority order.
  [[nodiscard]] std::vector<const FlowEntry*> query(
      const Match& filter, std::uint16_t out_port = port_no(Port::None)) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Bumped on every mutation (add/modify/delete/expire). Cached pointers
  /// into the table — the microflow cache's handles — are only valid while
  /// the generation they were read under is current.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  /// Number of live subtables (distinct wildcard patterns). Lookup cost is
  /// proportional to this, not to size().
  [[nodiscard]] std::size_t subtable_count() const { return subtables_.size(); }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : lookups{reg, "openflow.flow_table.lookups"},
          matches{reg, "openflow.flow_table.matches"},
          entries{reg, "openflow.flow_table.entries"},
          // Both count classifier work only, which the microflow cache
          // in front of it skips on a hit (see record_hit).
          lookup_ns{reg, "openflow.flow_table.lookup_ns",
                    telemetry::Determinism::CacheWarmth},
          subtables{reg, "openflow.flow_table.subtables"},
          subtable_scans{reg, "openflow.flow_table.subtable_scans",
                         telemetry::Determinism::CacheWarmth},
          table_full{reg, "openflow.flow_table.table_full"} {}
    telemetry::Counter lookups;
    telemetry::Counter matches;
    telemetry::Gauge entries;
    /// Classifier lookup latency (nanoseconds; microflow hits are not timed).
    telemetry::Histogram lookup_ns;
    telemetry::Gauge subtables;
    telemetry::Counter subtable_scans;
    telemetry::Counter table_full;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

  /// Visits every entry in descending priority order (diagnostics,
  /// EXPERIMENTS dumps).
  void for_each(const std::function<void(const FlowEntry&)>& fn) const;

  // -- Snapshottable ('FTBL' chunk) --------------------------------------------
  // Serializes every entry — match, priority, actions, timeouts, counters,
  // install/last-used times, insertion seq — ordered by seq so the encoding
  // is deterministic. Restore rebuilds the subtables from scratch and bumps
  // the generation, which flushes the datapath's microflow cache on its next
  // probe.
  void save(snapshot::Writer& w) const override;
  Status restore(const snapshot::Reader& r) override;

 private:
  /// One tuple-space subtable: every entry added with the same wildcard
  /// bitmap. The bucket key is the entry's FlowKey masked by `mask`; a
  /// bucket holds same-pattern entries at distinct priorities, sorted
  /// descending so front() is the subtable's best candidate for that key.
  struct Subtable {
    std::uint32_t wildcards = 0;
    FlowMask mask;
    std::uint16_t max_priority = 0;
    std::size_t n_entries = 0;
    std::unordered_map<FlowKey, std::vector<FlowEntry>, FlowKeyHash> buckets;
  };

  [[nodiscard]] bool entry_outputs_to(const FlowEntry& e,
                                      std::uint16_t out_port) const;
  [[nodiscard]] Subtable* subtable_for(std::uint32_t wildcards);
  /// The entry in `sub` with `key`'s masked pattern and this priority.
  [[nodiscard]] static FlowEntry* find_in(Subtable& sub, const FlowKey& key,
                                          std::uint16_t priority);
  Subtable& create_subtable(std::uint32_t wildcards);
  /// The single matching code path under lookup() and peek(): probe
  /// subtables in descending max-priority order with early exit.
  [[nodiscard]] const FlowEntry* find(const FlowKey& key,
                                      std::uint64_t* scanned) const;
  /// Erases every entry satisfying `pred`; appends them (with `reason` when
  /// collecting for expiry) and restores the subtable invariants.
  bool remove_entries(const std::function<bool(const FlowEntry&)>& pred,
                      const std::function<void(FlowEntry&&)>& sink);
  /// Places a fully populated entry (counters, times and seq preserved) into
  /// its subtable — the restore path's insert, bypassing FlowMod semantics.
  void insert_restored(FlowEntry e);
  void prune_and_resort();
  void sort_subtables();
  void bump_generation();

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t next_seq_ = 0;
  // Kept sorted by descending max_priority so find() can exit early.
  std::vector<std::unique_ptr<Subtable>> subtables_;

  Instruments metrics_;
};

}  // namespace hw::ofp
