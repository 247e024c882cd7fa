// Byte-stream link: the TCP stand-in under the OpenFlow secure channel.
// Unlike LinkChannel (frame-granularity), a StreamLink carries an ordered
// byte stream with no message boundaries: one send may be delivered split
// into several reads (mtu), and several sends may be delivered in one read
// (coalescing) — exactly the conditions a stream framer must survive.
//
// Fault surface (FaultInjector-compatible):
//  - cut()/restore(): connection loss; bytes in flight are dropped, possibly
//    mid-message, and the stream restarts clean (a TCP reconnect).
//  - stall()/unstall(): delivery freezes while sends keep queueing — the
//    half-open TCP connection a liveness watchdog must detect.
//  - set_mangle(): per-byte corruption probability for fuzz/chaos runs.
//
// Each direction keeps its in-flight bytes in one contiguous byte queue plus
// one (ready time, end offset) mark per send, and schedules one flush event
// per due instant rather than one per send: sends that fall due together
// share the event that delivers them.
#pragma once

#include <functional>
#include <span>

#include "sim/event_loop.hpp"
#include "telemetry/metrics.hpp"
#include "util/bytes.hpp"
#include "util/rand.hpp"

namespace hw::sim {

/// Full-duplex ordered byte pipe between two ends, with latency, optional
/// jitter (delivery order is still preserved: a chunk never overtakes an
/// earlier one) and an optional mtu bounding the bytes handed to on_data per
/// callback.
class StreamLink {
 public:
  struct Config {
    Duration latency = 0;
    /// Max extra delay per send, drawn uniformly from [0, jitter] with the
    /// link's Rng. Zero disables (and needs no Rng).
    Duration jitter = 0;
    /// Max bytes per on_data callback; 0 = unbounded (one callback drains
    /// everything due). Small values force partial-frame delivery.
    std::size_t mtu = 0;
  };

  class End {
   public:
    /// Receives a read. The span views the link's byte queue and is valid
    /// for the duration of the call only.
    using DataFn = std::function<void(std::span<const std::uint8_t>)>;

    /// Appends bytes to the stream towards the peer end.
    void send(std::span<const std::uint8_t> data);
    void send(const Bytes& data) {
      send(std::span<const std::uint8_t>(data.data(), data.size()));
    }
    /// Registers the receive callback for bytes arriving at this end.
    void on_data(DataFn fn) { on_data_ = std::move(fn); }
    [[nodiscard]] bool connected() const { return link_->connected_; }

   private:
    friend class StreamLink;
    /// Per-direction in-flight state: bytes this end has *received* come
    /// through peer_->send, so the queue lives on the receiving end. Each
    /// send leaves a mark: when it falls due and where its bytes end.
    struct Mark {
      Timestamp ready_at = 0;
      std::size_t end = 0;  // offset in inbox_ one past the send's last byte
    };
    static constexpr Timestamp kNoFlush = ~Timestamp{0};

    void enqueue(std::span<const std::uint8_t> data);
    void flush();
    void deliver_due();
    void compact();
    void drop_in_flight();

    StreamLink* link_ = nullptr;
    End* peer_ = nullptr;
    DataFn on_data_;
    Bytes inbox_;                // undelivered bytes start at inbox_head_
    std::size_t inbox_head_ = 0;
    std::vector<Mark> marks_;    // undelivered sends start at marks_head_
    std::size_t marks_head_ = 0;
    Timestamp last_ready_ = 0;   // monotone delivery deadline (ordering)
    Timestamp flush_at_ = kNoFlush;  // latest scheduled flush not yet run
    int flushing_ = 0;           // flush() nesting depth
    std::uint64_t drops_ = 0;    // drop_in_flight() count: offsets went stale
  };

  StreamLink(EventLoop& loop, Config config, Rng* rng = nullptr);

  End& a() { return a_; }
  End& b() { return b_; }

  /// Connection loss: queued-but-undelivered bytes (both directions) are
  /// dropped — possibly mid-message — and subsequent sends are discarded.
  void cut();
  /// Fresh connection after cut(): both directions restart with an empty
  /// stream. Peers must re-handshake; framers must be reset by the caller.
  void restore();
  [[nodiscard]] bool connected() const { return connected_; }

  /// Freezes delivery: sends keep queueing but nothing reaches on_data until
  /// unstall(). Models a wedged peer / half-open TCP connection.
  void stall();
  void unstall();
  [[nodiscard]] bool stalled() const { return stalled_; }

  /// Per-byte flip probability applied at send time (needs the link Rng).
  void set_mangle(double probability) { mangle_ = probability; }

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter tx_bytes{"sim.stream.tx_bytes"};
    telemetry::Counter rx_bytes{"sim.stream.rx_bytes"};
    telemetry::Counter rx_chunks{"sim.stream.rx_chunks"};  // on_data calls
    // Bytes flipped by set_mangle.
    telemetry::Counter mangled_bytes{"sim.stream.mangled_bytes"};
    // In-flight bytes lost to cut().
    telemetry::Counter cut_bytes{"sim.stream.cut_bytes"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  friend class End;

  EventLoop& loop_;
  Config config_;
  Rng* rng_;
  double mangle_ = 0.0;
  bool connected_ = true;
  bool stalled_ = false;
  End a_;
  End b_;
  Instruments metrics_;
};

}  // namespace hw::sim
