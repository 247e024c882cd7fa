#include "snapshot/coordinator.hpp"

#include <bit>
#include <cstdio>

namespace hw::snapshot {
namespace {

constexpr std::uint32_t kMetaTag = tag("META");
constexpr std::uint32_t kTeleTag = tag("TELE");
constexpr std::uint32_t kFtagTag = tag("FTAG");

}  // namespace

Result<Timestamp> captured_at(const Reader& r) {
  const Bytes* meta = r.find(kMetaTag);
  if (meta == nullptr) return make_error("snapshot: no META chunk");
  ByteReader br(*meta);
  auto at = br.u64();
  if (!at) return at.error();
  return at.value();
}

SnapshotCoordinator::~SnapshotCoordinator() { stop_periodic_captures(); }

void SnapshotCoordinator::add_layer(std::string name, Snapshottable* layer) {
  layers_.push_back(Layer{std::move(name), layer});
}

std::vector<std::string> SnapshotCoordinator::layer_names() const {
  std::vector<std::string> out;
  out.reserve(layers_.size());
  for (const Layer& l : layers_) out.push_back(l.name);
  return out;
}

SnapshotImage SnapshotCoordinator::capture() {
  // Count the capture before walking the layers: the image's own TELE chunk
  // then carries the incremented value, so a home resumed from it continues
  // the series exactly where the uninterrupted run would be.
  metrics_instruments_.captures.inc();
  Writer w;
  w.begin_chunk(kMetaTag).u64(loop_.now());
  w.end_chunk();
  for (const Layer& l : layers_) l.layer->save(w);
  SnapshotImage image;
  image.bytes = std::move(w).finish();
  image.captured_at = loop_.now();
  metrics_instruments_.bytes.set(static_cast<std::int64_t>(image.bytes.size()));
  last_image_ = image;
  return image;
}

Status SnapshotCoordinator::restore(std::span<const std::uint8_t> image) {
  auto reader = Reader::parse(image);
  if (!reader) {
    metrics_instruments_.corrupt_rejected.inc();
    return reader.error();
  }
  for (const Layer& l : layers_) {
    if (auto s = restore_layer(l, reader.value()); !s.ok()) return s;
  }
  metrics_instruments_.restores.inc();
  return Status::success();
}

Status SnapshotCoordinator::restore_layers(
    std::span<const std::uint8_t> image,
    const std::vector<std::string>& names) {
  auto reader = Reader::parse(image);
  if (!reader) {
    metrics_instruments_.corrupt_rejected.inc();
    return reader.error();
  }
  for (const Layer& l : layers_) {
    bool wanted = false;
    for (const std::string& n : names) wanted = wanted || n == l.name;
    if (!wanted) continue;
    if (auto s = restore_layer(l, reader.value()); !s.ok()) return s;
  }
  metrics_instruments_.restores.inc();
  return Status::success();
}

Status SnapshotCoordinator::restore_layer(const Layer& l, const Reader& r) {
  Status s = l.layer->restore(r);
  if (!s.ok()) metrics_instruments_.corrupt_rejected.inc();
  return s;
}

void SnapshotCoordinator::start_periodic_captures(
    Duration interval, std::function<void(const SnapshotImage&)> on_capture,
    Duration phase) {
  stop_periodic_captures();
  interval_ = interval;
  phase_ = phase;
  on_capture_ = std::move(on_capture);
  periodic_ = true;
  arm_next_capture(interval_);
}

void SnapshotCoordinator::stop_periodic_captures() {
  if (!periodic_) return;
  periodic_ = false;
  loop_.cancel(pending_);
}

void SnapshotCoordinator::arm_next_capture(Duration interval) {
  // Absolute k * interval + phase instants, so every restored home's capture
  // schedule lines up with the uninterrupted run's regardless of when the
  // coordinator was (re)started.
  const Timestamp now = loop_.now();
  const Timestamp next = now < phase_
                             ? phase_ + interval
                             : phase_ + ((now - phase_) / interval + 1) * interval;
  pending_ = loop_.schedule_at(next, [this] {
    if (!periodic_) return;
    // One-hop barrier: re-post at the same instant so everything already
    // queued at the capture time runs before the image is taken.
    pending_ = loop_.schedule_at(loop_.now(), [this] {
      if (!periodic_) return;
      const SnapshotImage image = capture();
      if (on_capture_) on_capture_(image);
      arm_next_capture(interval_);
    });
  });
}

Status SnapshotCoordinator::write_file(const std::string& path,
                                       const SnapshotImage& image) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return make_error("snapshot: cannot open " + tmp);
  const std::size_t wrote =
      image.bytes.empty()
          ? 0
          : std::fwrite(image.bytes.data(), 1, image.bytes.size(), f);
  const bool flushed = std::fclose(f) == 0 && wrote == image.bytes.size();
  if (!flushed) {
    std::remove(tmp.c_str());
    return make_error("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return make_error("snapshot: cannot rename " + tmp + " to " + path);
  }
  return Status::success();
}

Result<SnapshotImage> SnapshotCoordinator::read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return make_error("snapshot: cannot open " + path);
  Bytes bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  auto reader = Reader::parse(bytes);
  if (!reader) return reader.error();
  auto at = captured_at(reader.value());
  if (!at) return at.error();
  return SnapshotImage{std::move(bytes), at.value()};
}

void CaptureTagLayer::save(Writer& w) const {
  ByteWriter& c = w.begin_chunk(kFtagTag);
  c.u64(tag_.capture_id);
  c.u32(tag_.member);
  c.u32(tag_.members);
  w.end_chunk();
}

Status CaptureTagLayer::restore(const Reader& r) {
  const Bytes* chunk = r.find(kFtagTag);
  if (chunk == nullptr) return make_error("snapshot: no FTAG chunk");
  ByteReader br(*chunk);
  auto id = br.u64();
  if (!id) return id.error();
  auto member = br.u32();
  if (!member) return member.error();
  auto members = br.u32();
  if (!members) return members.error();
  tag_ = CaptureTag{id.value(), member.value(), members.value()};
  restored_ = true;
  return Status::success();
}

Result<Bytes> with_capture_tag(std::span<const std::uint8_t> image,
                               const CaptureTag& tag) {
  auto reader = Reader::parse(image);
  if (!reader) return reader.error();
  if (reader.value().find(kFtagTag) == nullptr) {
    return make_error("snapshot: no FTAG chunk to restamp");
  }
  Writer w;
  reader.value().for_each_chunk([&](std::uint32_t chunk_tag,
                                    const Bytes& payload) {
    ByteWriter& c = w.begin_chunk(chunk_tag);
    if (chunk_tag == kFtagTag) {
      c.u64(tag.capture_id);
      c.u32(tag.member);
      c.u32(tag.members);
    } else {
      c.raw(payload);
    }
    w.end_chunk();
  });
  return std::move(w).finish();
}

void TelemetryLayer::save(Writer& w) const {
  const auto scalars = registry_.scalars();
  ByteWriter& c = w.begin_chunk(kTeleTag);
  c.u32(static_cast<std::uint32_t>(scalars.size()));
  for (const auto& [name, value] : scalars) {
    put_string(c, name);
    c.u64(std::bit_cast<std::uint64_t>(value));
  }
  w.end_chunk();
}

Status TelemetryLayer::restore(const Reader& r) {
  const Bytes* chunk = r.find(kTeleTag);
  if (chunk == nullptr) return Status::success();
  ByteReader br(*chunk);
  auto count = br.u32();
  if (!count) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto name = get_string(br);
    if (!name) return name.error();
    auto bits = br.u64();
    if (!bits) return bits.error();
    // A series that no longer exists (instrument not yet constructed in the
    // fresh home) is skipped: the home builds the same instruments it did in
    // its first life, so anything missing here is a genuinely retired series.
    (void)registry_.restore_scalar(name.value(),
                                   std::bit_cast<double>(bits.value()));
  }
  return Status::success();
}

}  // namespace hw::snapshot
