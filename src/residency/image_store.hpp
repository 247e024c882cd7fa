// ImageStore: content-addressed storage for hibernated homes' snapshot
// images. An image (the PR 5 chunked-TLV container) is split into its chunks
// on put(); chunk payloads are pooled by (tag, CRC32, length) with a byte
// compare on collision, so the near-identical images quiet homes produce
// share storage instead of multiplying it. get() reassembles the original
// image bit-exactly (the container encoding is canonical: header fields are
// pure functions of the chunk sequence), reusing the chunk CRCs put()
// verified, so the only hash pass is the body CRC; the home that restores
// the image verifies every byte again when it parses it.
//
// Optionally file-backed: spill(key) writes the image to `spill_dir` (atomic
// tmp+rename via SnapshotCoordinator) and drops the in-memory chunks; get()
// transparently reloads from disk, checking the body CRC. Thread-safe — fleet workers hibernate
// homes concurrently; gauges are written under the same mutex, so they must
// only be read once the caller has synchronized with every writer (the fleet
// barrier handshake / pool join provides that).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"
#include "util/result.hpp"

namespace hw::residency {

class ImageStore {
 public:
  struct Config {
    /// Pool identical chunk payloads across images. Off = every image keeps
    /// private chunks (accounting baseline for the dedup gauge).
    bool dedup = true;
    /// When non-empty, spill(key) persists images here as img-<key>.hwsn.
    std::string spill_dir;
  };

  explicit ImageStore(telemetry::MetricRegistry& metrics =
                          telemetry::MetricRegistry::current());
  explicit ImageStore(Config config,
                      telemetry::MetricRegistry& metrics =
                          telemetry::MetricRegistry::current());
  ~ImageStore();
  ImageStore(const ImageStore&) = delete;
  ImageStore& operator=(const ImageStore&) = delete;

  /// Validates and stores `image` under `key` (replacing any previous
  /// image). Rejects images that fail container validation untouched. The
  /// pool takes over the chunks the validating parse copied out.
  Status put(std::uint64_t key, const snapshot::SnapshotImage& image);
  /// Reassembles the stored image bit-exactly (reloading from disk when the
  /// key was spilled).
  [[nodiscard]] Result<snapshot::SnapshotImage> get(std::uint64_t key) const;
  [[nodiscard]] bool contains(std::uint64_t key) const;
  void erase(std::uint64_t key);

  /// Moves one image out of memory onto disk (requires spill_dir).
  Status spill(std::uint64_t key);

  [[nodiscard]] std::size_t size() const;
  /// Sum of original image sizes currently held in memory.
  [[nodiscard]] std::uint64_t logical_bytes() const;
  /// Actual in-memory bytes after chunk pooling (headers + unique chunks).
  [[nodiscard]] std::uint64_t stored_bytes() const;
  /// logical_bytes() - stored_bytes(): what content addressing saved.
  [[nodiscard]] std::uint64_t deduped_bytes() const;

 private:
  /// Pooled chunk payload; refs counts how many stored images reference it.
  /// crc is the payload's CRC32 as the image header carried it, kept so
  /// the pool key is rebuilt on release without rehashing.
  struct PoolChunk {
    Bytes payload;
    std::uint32_t crc = 0;
    std::size_t refs = 0;
  };
  /// Pool key: (tag, CRC32, length), the CRC32 being the one Reader::parse
  /// verified. Collisions resolved by byte compare against every pooled
  /// payload under the key.
  using PoolKey = std::array<std::uint32_t, 3>;

  struct Entry {
    Timestamp captured_at = 0;
    std::uint64_t image_bytes = 0;  // original encoded size
    std::vector<std::pair<std::uint32_t, PoolChunk*>> chunks;
    bool spilled = false;
  };

  void release_chunks_locked(Entry& entry);
  /// Reassembles an in-memory entry from its pooled chunks, framing them
  /// with the CRCs kept since put() verified them: one hash pass, over the
  /// body CRC.
  [[nodiscard]] static Bytes encode(const Entry& entry);
  void refresh_gauges_locked();
  [[nodiscard]] std::string spill_path(std::uint64_t key) const;

  Config config_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
  std::map<PoolKey, std::vector<std::unique_ptr<PoolChunk>>> pool_;
  std::uint64_t logical_bytes_ = 0;  // in-memory entries only
  std::uint64_t stored_bytes_ = 0;

  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : images{reg, "residency.images"},
          image_bytes{reg, "residency.image_bytes"},
          image_bytes_logical{reg, "residency.image_bytes_logical"},
          image_bytes_deduped{reg, "residency.image_bytes_deduped"},
          fleet_image_bytes{reg, "fleet.image_bytes"} {}
    telemetry::Gauge images;
    telemetry::Gauge image_bytes;
    telemetry::Gauge image_bytes_logical;
    telemetry::Gauge image_bytes_deduped;
    /// Fleet-wide resident-memory accounting surface (exported through hwdb
    /// Metrics next to fleet.resident_homes).
    telemetry::Gauge fleet_image_bytes;
  } metrics_;
};

}  // namespace hw::residency
