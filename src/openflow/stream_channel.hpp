// The secure channel over a real byte stream: OpenFlow 1.0 header-based
// framing on top of sim::StreamLink. A StreamFramer reassembles messages
// from partial reads, splits coalesced reads, and rejects short-header,
// bad-version and oversized frames without desyncing the stream; a
// StreamChannel binds a framer to one end of a StreamLink behind the
// ChannelEndpoint interface; a StreamConnection joins a datapath-side and a
// controller-side channel over one link. It is the only secure-channel
// implementation: HomeworkRouter, the fleets and the benches all use it.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "openflow/channel.hpp"
#include "sim/stream.hpp"
#include "telemetry/metrics.hpp"
#include "util/bytes.hpp"

namespace hw::ofp {

/// Incremental OpenFlow 1.0 message reassembly. feed() accepts arbitrary
/// byte chunks and emits exactly the complete messages they contain, in
/// order. Header validation (per frame at the buffer head):
///  - version must be kWireVersion (0x01),
///  - the header length field must be in [kHeaderSize, max_frame].
/// A frame with a valid length and a plausible foreign version (0x02–0x06,
/// OF 1.1–1.6) is counted bad and skipped whole (a well-framed message of
/// another OF version keeps the stream aligned). Any other rejection enters
/// a byte-wise resync scan that drops bytes until a plausible header lines
/// up; one contiguous scan run counts as one bad frame no matter how many
/// bytes it sheds.
///
/// The framer consumes its buffer by offset and compacts it once per feed, so
/// a resync scan is linear in the bytes it sheds. Each complete message is
/// handed to the sink in one reused member buffer: the frame is valid for
/// that one sink call (one dispatch), and a sink that keeps it copies it.
class StreamFramer {
 public:
  struct Config {
    /// Upper bound on a single frame; headers claiming more are rejected.
    /// The OF 1.0 length field is 16 bits, so 65535 accepts everything a
    /// spec-conforming peer can send.
    std::size_t max_frame = 65535;
  };

  using FrameSink = std::function<void(const Bytes& frame)>;

  StreamFramer() = default;
  explicit StreamFramer(Config config) : config_(config) {}

  /// Consumes a read's worth of stream bytes, invoking `sink` once per
  /// complete message.
  void feed(std::span<const std::uint8_t> data, const FrameSink& sink);

  /// Drops all buffered bytes (stream reset / reconnect).
  void reset();

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter frames_ok{"openflow.channel.frames_ok"};
    // Completed from more than one read.
    telemetry::Counter frames_partial{"openflow.channel.frames_partial"};
    // Shared one read with other frames.
    telemetry::Counter frames_coalesced{"openflow.channel.frames_coalesced"};
    // Rejected headers / resync runs.
    telemetry::Counter frames_bad{"openflow.channel.frames_bad"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - head_; }

 private:
  enum class HeaderVerdict { Ok, NeedMore, SkipFrame, Scan };
  [[nodiscard]] HeaderVerdict check_header(std::size_t& frame_len) const;
  void emit_frames(bool had_leftover, const FrameSink& sink);

  Config config_;
  Bytes buffer_;          // stream bytes; the unconsumed ones start at head_
  std::size_t head_ = 0;
  Bytes frame_;           // the frame being handed to the sink
  bool feeding_ = false;  // inside feed(): a nested feed only appends
  bool scanning_ = false;       // inside a contiguous resync run
  bool frame_was_split_ = false;  // head frame started in an earlier feed
  Instruments metrics_;
};

/// ChannelEndpoint over one end of a byte-stream link: send() writes the
/// encoded message into the stream, received bytes run through a
/// StreamFramer and every reassembled message is dispatched to the handler.
class StreamChannel final : public ChannelEndpoint {
 public:
  StreamChannel(sim::StreamLink::End& end, StreamFramer::Config framing = {});

  void send(const Bytes& encoded) override;

  /// Clears reassembly state (a reconnect starts a fresh stream).
  void reset_framer() { framer_.reset(); }
  void mark_disconnected() { connected_ = false; }
  void mark_connected() { connected_ = true; }

  [[nodiscard]] const StreamFramer& framer() const { return framer_; }

 private:
  sim::StreamLink::End& end_;
  StreamFramer framer_;
};

/// The secure channel joining a datapath endpoint to a controller endpoint
/// over one byte-stream link, with connection-loss fault hooks.
/// disconnect() cuts the stream (in-flight bytes are lost, possibly
/// mid-message); reconnect() restores it as a fresh connection with both
/// framers reset. Messages dropped during the outage stay lost (TCP would
/// have reset); the endpoints must re-handshake.
class StreamConnection final {
 public:
  struct Config {
    sim::StreamLink::Config link;
    StreamFramer::Config framing;
  };

  explicit StreamConnection(sim::EventLoop& loop, Config config = {},
                            Rng* rng = nullptr);
  ~StreamConnection();

  ChannelEndpoint& datapath_end();
  ChannelEndpoint& controller_end();

  void disconnect();
  void reconnect();
  [[nodiscard]] bool connected() const;

  /// The underlying byte pipe, for fault injection beyond sever/restore
  /// (stall mid-frame, per-byte mangling).
  [[nodiscard]] sim::StreamLink& link() { return *link_; }
  [[nodiscard]] const StreamChannel& datapath_channel() const { return *a_; }
  [[nodiscard]] const StreamChannel& controller_channel() const { return *b_; }

 private:
  std::unique_ptr<sim::StreamLink> link_;
  std::unique_ptr<StreamChannel> a_;  // datapath side (link end a)
  std::unique_ptr<StreamChannel> b_;  // controller side (link end b)
};

}  // namespace hw::ofp
