// Point-to-point link models connecting a host NIC to a router port.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "telemetry/metrics.hpp"
#include "util/bytes.hpp"
#include "util/rand.hpp"

namespace hw::sim {

/// Anything that can accept a frame (host NIC, datapath port adapter).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual void deliver(const Bytes& frame) = 0;
};

/// Callback-backed sink for lightweight wiring.
class CallbackSink final : public FrameSink {
 public:
  using Fn = std::function<void(const Bytes&)>;
  explicit CallbackSink(Fn fn) : fn_(std::move(fn)) {}
  void deliver(const Bytes& frame) override { fn_(frame); }

 private:
  Fn fn_;
};

/// Half of a duplex link: frames pushed in at one end arrive at the sink
/// after propagation + serialization delay, subject to capacity and loss.
/// Also a FrameSink so channels compose directly with ports and adapters.
class LinkChannel : public FrameSink {
 public:
  struct Config {
    std::uint64_t bandwidth_bps = 100'000'000;  // 100 Mb/s Fast Ethernet
    Duration latency = 500;                     // 0.5 ms
    double loss_probability = 0.0;
    std::size_t queue_limit = 128;  // frames in flight before tail drop
  };

  LinkChannel(EventLoop& loop, Config config, Rng* rng = nullptr);

  void connect(FrameSink* sink) { sink_ = sink; }
  /// Queues a frame for delivery; drops if the queue is full or loss fires.
  /// Returns false on drop. The link keeps its own copy of the frame; the
  /// rvalue overload moves the caller's buffer in instead.
  bool send(const Bytes& frame);
  bool send(Bytes&& frame);
  void deliver(const Bytes& frame) override { send(frame); }

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter tx_frames{"sim.link.tx_frames"};
    telemetry::Counter tx_bytes{"sim.link.tx_bytes"};
    telemetry::Counter dropped_frames{"sim.link.dropped_frames"};
    // Wireless retransmissions.
    telemetry::Counter retried_frames{"sim.link.retried_frames"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }
  void set_loss_probability(double p) { config_.loss_probability = p; }
  void set_bandwidth(std::uint64_t bps) { config_.bandwidth_bps = bps; }

 private:
  EventLoop& loop_;
  Config config_;
  Rng* rng_;
  FrameSink* sink_ = nullptr;
  Instruments metrics_;
  Timestamp busy_until_ = 0;
  /// Frames on the wire, oldest first from in_flight_head_: delivered in
  /// arrival order. The vector is compacted once the delivered prefix
  /// outgrows the rest, so a steady hop reuses its slots.
  std::vector<Bytes> in_flight_;
  std::size_t in_flight_head_ = 0;
};

/// Full-duplex link: two channels plus convenience wiring.
class DuplexLink {
 public:
  DuplexLink(EventLoop& loop, LinkChannel::Config config, Rng* rng = nullptr)
      : a_to_b_(loop, config, rng), b_to_a_(loop, config, rng) {}

  LinkChannel& a_to_b() { return a_to_b_; }
  LinkChannel& b_to_a() { return b_to_a_; }

 private:
  LinkChannel a_to_b_;
  LinkChannel b_to_a_;
};

}  // namespace hw::sim
