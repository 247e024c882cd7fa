#include "residency/image_store.hpp"

#include <cstdio>

#include "snapshot/codec.hpp"

namespace hw::residency {
namespace {

/// Container framing: 16-byte image header, 12 bytes (tag/len/crc) per
/// chunk. Framing is attributed to the first pooled copy of a chunk so an
/// image with no shared chunks accounts for exactly its encoded size —
/// deduped_bytes() is then zero unless pooling actually shared something.
constexpr std::uint64_t kHeaderBytes = 16;
constexpr std::uint64_t kChunkOverhead = 12;

}  // namespace

ImageStore::ImageStore(telemetry::MetricRegistry& metrics)
    : ImageStore(Config{}, metrics) {}

ImageStore::ImageStore(Config config, telemetry::MetricRegistry& metrics)
    : config_(std::move(config)), metrics_(metrics) {}

ImageStore::~ImageStore() = default;

Status ImageStore::put(std::uint64_t key,
                       const snapshot::SnapshotImage& image) {
  auto reader = snapshot::Reader::parse(image.bytes);
  if (!reader) return reader.error();
  // The parsed chunks are this put's own copies: the pool takes them over.
  std::vector<snapshot::Reader::Chunk> chunks = std::move(reader).take().chunks();

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    release_chunks_locked(it->second);
    if (it->second.spilled) (void)std::remove(spill_path(key).c_str());
    entries_.erase(it);
  }

  Entry entry;
  entry.captured_at = image.captured_at;
  entry.image_bytes = image.bytes.size();
  for (snapshot::Reader::Chunk& c : chunks) {
    // parse() verified each chunk against its header CRC: key on that.
    const PoolKey pkey{c.tag, c.crc,
                       static_cast<std::uint32_t>(c.payload.size())};
    auto& bucket = pool_[pkey];
    PoolChunk* found = nullptr;
    if (config_.dedup) {
      for (auto& candidate : bucket) {
        if (candidate->payload == c.payload) {
          found = candidate.get();
          break;
        }
      }
    }
    if (found == nullptr) {
      bucket.push_back(std::make_unique<PoolChunk>());
      found = bucket.back().get();
      stored_bytes_ += kChunkOverhead + c.payload.size();
      found->payload = std::move(c.payload);
      found->crc = c.crc;
    }
    ++found->refs;
    entry.chunks.emplace_back(c.tag, found);
  }
  logical_bytes_ += entry.image_bytes;
  stored_bytes_ += kHeaderBytes;
  entries_.emplace(key, std::move(entry));
  refresh_gauges_locked();
  return Status::success();
}

Result<snapshot::SnapshotImage> ImageStore::get(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return make_error("residency: no image for key " + std::to_string(key));
  }
  if (it->second.spilled) {
    // The entry holds captured_at, so the file is not parsed for its META:
    // one body-CRC pass refuses a damaged file, and the home that restores
    // the image verifies every chunk when it parses it.
    auto bytes = snapshot::SnapshotCoordinator::read_file_bytes(spill_path(key));
    if (!bytes) return bytes.error();
    if (auto s = snapshot::check_image(bytes.value()); !s.ok()) return s.error();
    return snapshot::SnapshotImage{std::move(bytes).take(),
                                   it->second.captured_at};
  }
  return snapshot::SnapshotImage{encode(it->second), it->second.captured_at};
}

bool ImageStore::contains(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

void ImageStore::erase(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  release_chunks_locked(it->second);
  if (it->second.spilled) (void)std::remove(spill_path(key).c_str());
  entries_.erase(it);
  refresh_gauges_locked();
}

Status ImageStore::spill(std::uint64_t key) {
  if (config_.spill_dir.empty()) {
    return make_error("residency: image store has no spill_dir");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return make_error("residency: no image for key " + std::to_string(key));
  }
  if (it->second.spilled) return Status::success();
  const snapshot::SnapshotImage image{encode(it->second),
                                      it->second.captured_at};
  if (auto s = snapshot::SnapshotCoordinator::write_file(spill_path(key),
                                                         image);
      !s.ok()) {
    return s;
  }
  release_chunks_locked(it->second);
  it->second.spilled = true;
  refresh_gauges_locked();
  return Status::success();
}

std::size_t ImageStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ImageStore::logical_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logical_bytes_;
}

std::uint64_t ImageStore::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stored_bytes_;
}

std::uint64_t ImageStore::deduped_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logical_bytes_ > stored_bytes_ ? logical_bytes_ - stored_bytes_ : 0;
}

void ImageStore::release_chunks_locked(Entry& entry) {
  if (entry.spilled) return;  // chunks already released at spill time
  for (const auto& [tag, chunk] : entry.chunks) {
    if (--chunk->refs > 0) continue;
    const PoolKey pkey{tag, chunk->crc,
                       static_cast<std::uint32_t>(chunk->payload.size())};
    auto pit = pool_.find(pkey);
    if (pit == pool_.end()) continue;
    stored_bytes_ -= kChunkOverhead + chunk->payload.size();
    auto& bucket = pit->second;
    for (auto bit = bucket.begin(); bit != bucket.end(); ++bit) {
      if (bit->get() == chunk) {
        bucket.erase(bit);
        break;
      }
    }
    if (bucket.empty()) pool_.erase(pit);
  }
  logical_bytes_ -= entry.image_bytes;
  stored_bytes_ -= kHeaderBytes;
  entry.chunks.clear();
}

void ImageStore::refresh_gauges_locked() {
  metrics_.images.set(static_cast<std::int64_t>(entries_.size()));
  metrics_.image_bytes.set(static_cast<std::int64_t>(stored_bytes_));
  metrics_.image_bytes_logical.set(static_cast<std::int64_t>(logical_bytes_));
  metrics_.image_bytes_deduped.set(static_cast<std::int64_t>(
      logical_bytes_ > stored_bytes_ ? logical_bytes_ - stored_bytes_ : 0));
  metrics_.fleet_image_bytes.set(static_cast<std::int64_t>(stored_bytes_));
}

Bytes ImageStore::encode(const Entry& entry) {
  std::vector<snapshot::FramedChunk> framed;
  framed.reserve(entry.chunks.size());
  for (const auto& [tag, chunk] : entry.chunks) {
    framed.push_back(snapshot::FramedChunk{tag, chunk->payload, chunk->crc});
  }
  return snapshot::encode_image(framed);
}

std::string ImageStore::spill_path(std::uint64_t key) const {
  return config_.spill_dir + "/img-" + std::to_string(key) + ".hwsn";
}

}  // namespace hw::residency
