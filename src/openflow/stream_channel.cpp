#include "openflow/stream_channel.hpp"

#include "openflow/messages.hpp"

namespace hw::ofp {

// ---------------------------------------------------------------------------
// StreamFramer

StreamFramer::HeaderVerdict StreamFramer::check_header(
    std::size_t& frame_len) const {
  if (buffered() < kHeaderSize) return HeaderVerdict::NeedMore;
  const std::uint8_t* head = buffer_.data() + head_;
  const std::size_t len = (static_cast<std::size_t>(head[2]) << 8) | head[3];
  if (len < kHeaderSize || len > config_.max_frame) {
    // A length that can't even hold the header (or is absurdly large) means
    // we are not looking at a frame boundary at all: scan for one.
    return HeaderVerdict::Scan;
  }
  if (head[0] != kWireVersion) {
    // Plausible length and a version an actual OpenFlow peer could speak
    // (1.1–1.6): a well-framed message of another version; skipping it whole
    // keeps the stream aligned. Any other version byte is noise — treating
    // its length field as authoritative would let garbage swallow the valid
    // messages behind it, so scan instead.
    if (head[0] < 0x02 || head[0] > 0x06) return HeaderVerdict::Scan;
    frame_len = len;
    return HeaderVerdict::SkipFrame;
  }
  frame_len = len;
  return HeaderVerdict::Ok;
}

void StreamFramer::feed(std::span<const std::uint8_t> data,
                        const FrameSink& sink) {
  if (data.empty()) return;
  const bool had_leftover = buffered() > 0;
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  // A sink that (indirectly) feeds this framer again only appends: the
  // running loop picks the bytes up, and the frame it handed out stays put.
  if (feeding_) return;
  feeding_ = true;
  emit_frames(had_leftover, sink);
  feeding_ = false;
  // Compact once per feed: only a partial frame (or nothing) is left.
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  // Neither a burst of garbage nor a one-off large frame pins its size.
  constexpr std::size_t kKeepBytes = 4096;
  if (buffer_.empty()) release_if_oversized(buffer_, kKeepBytes);
  release_if_oversized(frame_, kKeepBytes);
}

void StreamFramer::emit_frames(bool had_leftover, const FrameSink& sink) {
  std::size_t emitted_this_feed = 0;
  for (;;) {
    std::size_t frame_len = 0;
    switch (check_header(frame_len)) {
      case HeaderVerdict::NeedMore:
        return;
      case HeaderVerdict::Scan: {
        if (!scanning_) {
          metrics_.frames_bad.inc();
          scanning_ = true;
        }
        // Shed one byte and retry: the next plausible header (version byte
        // with a sane length behind it) re-anchors the stream.
        ++head_;
        frame_was_split_ = false;
        continue;
      }
      case HeaderVerdict::SkipFrame: {
        if (buffered() < frame_len) return;  // skip once it fully arrives
        metrics_.frames_bad.inc();
        scanning_ = false;
        head_ += frame_len;
        frame_was_split_ = false;
        continue;
      }
      case HeaderVerdict::Ok:
        break;
    }
    if (buffered() < frame_len) {
      // Header is valid but the body hasn't fully arrived: the head frame is
      // now known to span feeds.
      frame_was_split_ = true;
      return;
    }
    scanning_ = false;
    const auto first = buffer_.begin() + static_cast<std::ptrdiff_t>(head_);
    frame_.assign(first, first + static_cast<std::ptrdiff_t>(frame_len));
    head_ += frame_len;
    metrics_.frames_ok.inc();
    if (frame_was_split_ || (had_leftover && emitted_this_feed == 0)) {
      metrics_.frames_partial.inc();
    }
    frame_was_split_ = false;
    ++emitted_this_feed;
    if (emitted_this_feed == 2) {
      // Two or more frames out of one read: all of them were coalesced.
      metrics_.frames_coalesced.inc(2);
    } else if (emitted_this_feed > 2) {
      metrics_.frames_coalesced.inc();
    }
    sink(frame_);
  }
}

void StreamFramer::reset() {
  buffer_.clear();
  head_ = 0;
  scanning_ = false;
  frame_was_split_ = false;
}

// ---------------------------------------------------------------------------
// StreamChannel

StreamChannel::StreamChannel(sim::StreamLink::End& end,
                             StreamFramer::Config framing)
    : end_(end), framer_(framing) {
  end_.on_data([this](std::span<const std::uint8_t> data) {
    framer_.feed(data, [this](const Bytes& frame) {
      if (connected_) dispatch(frame);
    });
  });
}

void StreamChannel::send(const Bytes& encoded) {
  if (!connected_) {
    note_dropped();
    return;
  }
  note_sent(encoded.size());
  end_.send(encoded);
}

// ---------------------------------------------------------------------------
// StreamConnection

StreamConnection::StreamConnection(sim::EventLoop& loop, Config config,
                                   Rng* rng)
    : link_(std::make_unique<sim::StreamLink>(loop, config.link, rng)),
      a_(std::make_unique<StreamChannel>(link_->a(), config.framing)),
      b_(std::make_unique<StreamChannel>(link_->b(), config.framing)) {}

StreamConnection::~StreamConnection() = default;

ChannelEndpoint& StreamConnection::datapath_end() { return *a_; }
ChannelEndpoint& StreamConnection::controller_end() { return *b_; }

void StreamConnection::disconnect() {
  link_->cut();
  a_->mark_disconnected();
  b_->mark_disconnected();
}

void StreamConnection::reconnect() {
  // A reconnect is a fresh TCP stream: whatever half-frame either framer was
  // holding belongs to the dead connection.
  a_->reset_framer();
  b_->reset_framer();
  link_->restore();
  a_->mark_connected();
  b_->mark_connected();
}

bool StreamConnection::connected() const { return link_->connected(); }

}  // namespace hw::ofp
