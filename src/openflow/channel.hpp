// The "secure channel" of the paper's OpenFlow switch description: a
// bidirectional ordered byte-message pipe between datapath and controller.
// Messages are always the encoded wire form. ChannelEndpoint is one end of
// it; StreamChannel (stream_channel.hpp) implements it by framing those
// messages over a simulated byte stream that stands in for TCP/TLS.
#pragma once

#include <functional>

#include "telemetry/metrics.hpp"
#include "util/bytes.hpp"

namespace hw::ofp {

/// One end of a connection. send() transmits to the peer; incoming messages
/// arrive through the handler registered with on_receive().
class ChannelEndpoint {
 public:
  using Handler = std::function<void(const Bytes& encoded)>;

  virtual ~ChannelEndpoint() = default;
  virtual void send(const Bytes& encoded) = 0;
  void on_receive(Handler handler) { handler_ = std::move(handler); }
  /// Observation tap: sees every delivered message (after reassembly, before
  /// the handler). Tests observe the delivered messages through it.
  void set_tap(Handler tap) { tap_ = std::move(tap); }
  [[nodiscard]] bool connected() const { return connected_; }

  /// The endpoint's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter tx_messages{"openflow.channel.tx_messages"};
    telemetry::Counter tx_bytes{"openflow.channel.tx_bytes"};
    telemetry::Counter rx_messages{"openflow.channel.rx_messages"};
    telemetry::Counter rx_bytes{"openflow.channel.rx_bytes"};
    // Sends swallowed while disconnected.
    telemetry::Counter tx_dropped{"openflow.channel.tx_dropped"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

 protected:
  void dispatch(const Bytes& encoded) {
    metrics_.rx_messages.inc();
    metrics_.rx_bytes.inc(encoded.size());
    if (tap_) tap_(encoded);
    if (handler_) handler_(encoded);
  }
  void note_sent(std::size_t size) {
    metrics_.tx_messages.inc();
    metrics_.tx_bytes.inc(size);
  }
  void note_dropped() { metrics_.tx_dropped.inc(); }

  Handler handler_;
  Handler tap_;
  bool connected_ = true;

 private:
  Instruments metrics_;
};

}  // namespace hw::ofp
