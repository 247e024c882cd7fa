// SnapshotCoordinator: captures a consistent whole-home image and restores
// one into a freshly constructed home.
//
// Consistency model: the simulation is single-threaded on a virtual clock,
// so "quiesce" means capturing between events. Periodic captures are
// scheduled at absolute multiples of the interval and re-post themselves
// once at the same timestamp before capturing — a one-hop barrier that lets
// every event already queued at the capture instant (periodic timer chains
// armed earlier in the home's life have smaller event ids and therefore run
// first) drain before the image is taken. Restore walks the registered
// layers in registration order; callers register the telemetry layer last
// so restored counters overwrite whatever side effects booting the fresh
// home produced.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "snapshot/snapshottable.hpp"
#include "telemetry/metrics.hpp"

namespace hw::snapshot {

struct SnapshotImage {
  Bytes bytes;
  Timestamp captured_at = 0;
};

/// META chunk accessor: the virtual time the image was captured at.
Result<Timestamp> captured_at(const Reader& r);

class SnapshotCoordinator {
 public:
  explicit SnapshotCoordinator(sim::EventLoop& loop,
                               telemetry::MetricRegistry& metrics =
                                   telemetry::MetricRegistry::current())
      : loop_(loop), metrics_(metrics) {}
  ~SnapshotCoordinator();
  SnapshotCoordinator(const SnapshotCoordinator&) = delete;
  SnapshotCoordinator& operator=(const SnapshotCoordinator&) = delete;

  /// Registers a layer under `name`. Capture and restore both walk layers
  /// in registration order; register the telemetry layer last.
  void add_layer(std::string name, Snapshottable* layer);
  [[nodiscard]] std::vector<std::string> layer_names() const;

  /// Captures every registered layer into one image, stamped with now().
  [[nodiscard]] SnapshotImage capture();

  /// Validates `image` and restores every registered layer from it. On any
  /// container validation failure returns the error with
  /// snapshot.corrupt_rejected incremented and *no* layer touched. A layer
  /// that rejects its own chunks counts as corrupt too; the walk stops there,
  /// so later layers stay untouched (earlier ones have been restored).
  Status restore(const SnapshotImage& image) { return restore(image.bytes); }
  Status restore(std::span<const std::uint8_t> image);
  /// Restores every layer from an image the caller already parsed (and so
  /// verified), so one parse serves several restore passes.
  Status restore(const Reader& image);
  /// Restores only the named layers (warm restart rebuilds the datapath's
  /// flow table without rewinding hwdb or the registry).
  Status restore_layers(std::span<const std::uint8_t> image,
                        const std::vector<std::string>& names);
  Status restore_layers(const Reader& image,
                        const std::vector<std::string>& names);

  /// Schedules captures at every absolute k * interval + phase instant (the
  /// phase-aligned barrier above). Each image replaces last_image() and is
  /// handed to `on_capture` when set. Pass the home's boot-settle duration
  /// as `phase` (HomeworkRouter::kBootSettle) so captures land after the
  /// integer-second timer cascades have drained.
  void start_periodic_captures(
      Duration interval,
      std::function<void(const SnapshotImage&)> on_capture = {},
      Duration phase = 0);
  void stop_periodic_captures();

  /// Most recent image from capture()/start_periodic_captures().
  [[nodiscard]] const std::optional<SnapshotImage>& last_image() const {
    return last_image_;
  }

  /// Atomic file persistence: writes to `path + ".tmp"` then renames, so a
  /// crash mid-write never leaves a torn snapshot at `path`.
  static Status write_file(const std::string& path, const SnapshotImage& image);
  /// The file's bytes as they are, neither parsed nor verified: a restore
  /// (or Reader::parse) checks them.
  static Result<Bytes> read_file_bytes(const std::string& path);

 private:
  void arm_next_capture(Duration interval);

  sim::EventLoop& loop_;
  telemetry::MetricRegistry& metrics_;
  struct Layer {
    std::string name;
    Snapshottable* layer = nullptr;
  };
  std::vector<Layer> layers_;
  /// One layer's restore; a layer that rejects the image counts as corrupt.
  Status restore_layer(const Layer& l, const Reader& r);
  std::optional<SnapshotImage> last_image_;
  std::function<void(const SnapshotImage&)> on_capture_;
  Duration interval_ = 0;
  Duration phase_ = 0;
  sim::EventLoop::EventId pending_ = 0;
  bool periodic_ = false;

  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : captures{reg, "snapshot.captures", kClass},
          restores{reg, "snapshot.restores", kClass},
          bytes{reg, "snapshot.bytes", kClass},
          corrupt_rejected{reg, "snapshot.corrupt_rejected", kClass} {}
    static constexpr auto kClass = telemetry::Determinism::Checkpoint;
    telemetry::Counter captures;
    telemetry::Counter restores;
    telemetry::Gauge bytes;
    telemetry::Counter corrupt_rejected;
  } metrics_instruments_{metrics_};
};

/// Adapts a pair of functions into a layer (small subsystems — RNG state,
/// driver sequence counters — snapshot through one of these instead of
/// implementing the interface).
class LambdaLayer final : public Snapshottable {
 public:
  LambdaLayer(std::function<void(Writer&)> save,
              std::function<Status(const Reader&)> restore)
      : save_(std::move(save)), restore_(std::move(restore)) {}

  void save(Writer& w) const override { save_(w); }
  Status restore(const Reader& r) override { return restore_(r); }

 private:
  std::function<void(Writer&)> save_;
  std::function<Status(const Reader&)> restore_;
};

/// Fleet-wide capture identity stamped into each member's image ('FTAG'
/// chunk). A coordinated checkpoint captures every home at the same barrier
/// instant; the tag records which capture the image belongs to and the
/// member's position, so a restore can reject an image set stitched together
/// from different captures (or with members swapped around).
struct CaptureTag {
  std::uint64_t capture_id = 0;  // fleet-unique, monotonic per checkpoint
  std::uint32_t member = 0;      // home id this image belongs to
  std::uint32_t members = 0;     // fleet size at capture time
};

/// Layer carrying a CaptureTag. The owner sets the tag via value() just
/// before a coordinated capture; after a restore, value() holds the tag
/// read from the image and restored() is true.
class CaptureTagLayer final : public Snapshottable {
 public:
  void save(Writer& w) const override;
  Status restore(const Reader& r) override;

  [[nodiscard]] CaptureTag& value() { return tag_; }
  [[nodiscard]] const CaptureTag& value() const { return tag_; }
  [[nodiscard]] bool restored() const { return restored_; }

 private:
  CaptureTag tag_;
  bool restored_ = false;
};

/// Rewrites the FTAG chunk of an encoded image with `tag`, leaving every
/// other chunk byte-identical (framed with the CRCs the parse verified; only
/// the new FTAG and the body are hashed). A fleet checkpoint
/// of a mixed resident/hibernated fleet reuses a hibernated member's stored
/// image, restamped into the new capture so the stitched-set validation
/// still holds. Errors when the image does not parse or has no FTAG chunk.
Result<Bytes> with_capture_tag(std::span<const std::uint8_t> image,
                               const CaptureTag& tag);

/// Snapshots a registry's non-histogram scalars ('TELE' chunk). Restore
/// adjusts live instruments so each series sums to its captured value;
/// histograms time wall-clock nanoseconds and are deliberately excluded.
/// Register this layer last: restoring it erases the telemetry side effects
/// of booting the fresh home.
class TelemetryLayer final : public Snapshottable {
 public:
  explicit TelemetryLayer(telemetry::MetricRegistry& registry)
      : registry_(registry) {}

  void save(Writer& w) const override;
  Status restore(const Reader& r) override;

 private:
  telemetry::MetricRegistry& registry_;
};

}  // namespace hw::snapshot
