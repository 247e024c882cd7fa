// The Open vSwitch stand-in: an OpenFlow 1.0 datapath with physical ports,
// a flow table, a packet buffer and a secure channel to the controller
// ("dp0" in the paper's Figure 5). Frames enter via port FrameSinks, are
// matched against the flow table, and misses go to the controller as
// packet-in messages.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "openflow/channel.hpp"
#include "openflow/flow_table.hpp"
#include "openflow/messages.hpp"
#include "openflow/microflow_cache.hpp"
#include "sim/link.hpp"
#include "telemetry/metrics.hpp"
#include "util/token_bucket.hpp"

namespace hw::ofp {

struct PortCounters {
  std::uint64_t rx_packets = 0;
  std::uint64_t tx_packets = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_dropped = 0;
  std::uint64_t tx_dropped = 0;
};

class Datapath {
 public:
  struct Config {
    std::uint64_t datapath_id = 1;
    std::size_t n_buffers = 256;
    std::uint16_t miss_send_len = 128;
    std::size_t table_capacity = 4096;
    std::size_t microflow_capacity = 4096;  // exact-match cache entries
    Duration expiry_interval = kSecond;  // timeout sweep period
    /// Channel silence after which the datapath assumes the controller is
    /// dead and enters fail-safe mode (deny-new / permit-established). Must
    /// comfortably exceed the controller's echo-probe interval; 0 disables.
    Duration controller_dead_interval = 15 * kSecond;
  };

  /// `metrics` scopes the datapath's (and its flow table's) instruments;
  /// defaults to the calling thread's active registry.
  Datapath(sim::EventLoop& loop, Config config,
           telemetry::MetricRegistry& metrics =
               telemetry::MetricRegistry::current());
  ~Datapath();
  Datapath(const Datapath&) = delete;
  Datapath& operator=(const Datapath&) = delete;

  /// Attaches the secure channel to the controller and sends HELLO.
  void connect(ChannelEndpoint& channel);

  /// Registers a physical port. `out` receives frames the datapath emits on
  /// that port (i.e. it is the attached link towards the device).
  void add_port(std::uint16_t port, std::string name, MacAddress hw_addr,
                sim::FrameSink* out);
  void remove_port(std::uint16_t port);
  /// Sink for frames *arriving* on `port` — hand this to the link.
  sim::FrameSink* ingress(std::uint16_t port);

  /// Ingress entry point (links call this through ingress() adapters).
  void receive_frame(std::uint16_t in_port, const Bytes& frame);

  [[nodiscard]] std::uint64_t id() const { return config_.datapath_id; }
  [[nodiscard]] FlowTable& table() { return table_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : packet_ins{reg, "openflow.datapath.packet_ins"},
          packet_outs{reg, "openflow.datapath.packet_outs"},
          flow_mods{reg, "openflow.datapath.flow_mods"},
          flow_removed_sent{reg, "openflow.datapath.flow_removed_sent"},
          // Packet-in buffers and the microflow cache start cold after a
          // restore, so their accounting is not replay-exact.
          buffer_evictions{reg, "openflow.datapath.buffer_evictions",
                           telemetry::Determinism::CacheWarmth},
          microflow_hits{reg, "openflow.datapath.microflow_hits",
                         telemetry::Determinism::CacheWarmth},
          microflow_misses{reg, "openflow.datapath.microflow_misses",
                           telemetry::Determinism::CacheWarmth},
          microflow_invalidations{
              reg, "openflow.datapath.microflow_invalidations",
              telemetry::Determinism::CacheWarmth},
          failsafe_entries{reg, "openflow.datapath.failsafe_entries"},
          failsafe_dropped_packet_ins{
              reg, "openflow.datapath.failsafe_dropped_packet_ins"},
          restarts{reg, "openflow.datapath.restarts"},
          fail_safe{reg, "openflow.datapath.fail_safe"} {}
    telemetry::Counter packet_ins;
    telemetry::Counter packet_outs;
    telemetry::Counter flow_mods;
    telemetry::Counter flow_removed_sent;
    telemetry::Counter buffer_evictions;
    telemetry::Counter microflow_hits;
    telemetry::Counter microflow_misses;
    telemetry::Counter microflow_invalidations;
    telemetry::Counter failsafe_entries;
    telemetry::Counter failsafe_dropped_packet_ins;
    telemetry::Counter restarts;
    telemetry::Gauge fail_safe;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] const MicroflowCache& microflow_cache() const {
    return microflow_;
  }
  /// Storage the kept rewrite buffer holds between frames (at most 4 KiB).
  [[nodiscard]] std::size_t rewrite_capacity() const {
    return rewrite_.capacity();
  }
  [[nodiscard]] const PortCounters* port_counters(std::uint16_t port) const;
  [[nodiscard]] std::vector<PhyPort> port_descriptions() const;

  /// Observation hook: sees every FlowMod as it is applied. Benches use it
  /// to timestamp flow installation without touching the datapath's logic.
  void set_flow_mod_observer(std::function<void(const FlowMod&)> fn) {
    flow_mod_observer_ = std::move(fn);
  }

  /// Runs one expiry sweep immediately (normally driven by the timer). Also
  /// the fail-safe watchdog: entered when the channel has been silent for
  /// controller_dead_interval, left on the next channel message.
  void sweep_timeouts();

  /// While fail-safe, new flows are denied (packet-ins dropped instead of
  /// queued towards a dead controller) but established flows keep forwarding
  /// — their idle timeouts are suspended so they outlive the outage.
  [[nodiscard]] bool fail_safe() const { return fail_safe_; }

  /// Cold restart: all volatile state (flow table, microflow cache, packet
  /// buffers, learned MACs, fail-safe latch) is lost; the out-of-band queue
  /// configuration survives. Re-sends HELLO so the controller re-handshakes
  /// and re-installs flows.
  void restart();

  // -- Port queues (rate limiting) --------------------------------------------
  // OpenFlow 1.0 exposes queues via OFPAT_ENQUEUE but configures them out of
  // band (ovs-vsctl / ovsdb in deployment). These calls are that side
  // channel: a policing queue drops frames beyond its token-bucket rate.
  void configure_queue(std::uint16_t port, std::uint32_t queue_id,
                       std::uint64_t rate_bps, std::uint64_t burst_bytes);
  void remove_queue(std::uint16_t port, std::uint32_t queue_id);
  struct QueueCounters {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t dropped = 0;
  };
  [[nodiscard]] const QueueCounters* queue_counters(std::uint16_t port,
                                                    std::uint32_t queue_id) const;

 private:
  struct PortState {
    std::string name;
    MacAddress hw_addr;
    sim::FrameSink* out = nullptr;
    PortCounters counters;
    std::unique_ptr<sim::CallbackSink> ingress_adapter;
  };

  void handle_channel_message(const Bytes& encoded);
  void handle_flow_mod(FlowMod&& mod, std::uint32_t xid);
  void handle_packet_out(const PacketOut& po, std::uint32_t xid);
  void handle_stats_request(const StatsRequest& req, std::uint32_t xid);
  void process_frame(std::uint16_t in_port, const Bytes& frame);
  /// Executes an action list on a frame, copying it only if a set-field
  /// action rewrites a header (see docs/openflow-wire.md). `parsed` is the
  /// frame's parse when the caller has one; otherwise the frame is parsed
  /// at the first set-field action.
  void apply_actions(const ActionList& actions, std::uint16_t in_port,
                     const Bytes& frame,
                     const net::ParsedPacket* parsed = nullptr);
  void output(std::uint16_t out_port, std::uint16_t in_port, const Bytes& frame,
              std::uint16_t controller_max_len = 0);
  void flood(std::uint16_t in_port, const Bytes& frame, bool include_in_port);
  void do_normal(std::uint16_t in_port, const Bytes& frame);
  void send_packet_in(std::uint16_t in_port, const Bytes& frame,
                      PacketInReason reason, std::uint16_t max_len);
  /// Encodes `msg` into tx_ and sends it; T is one of Message's alternatives.
  template <typename T>
  void send_to_controller(const T& msg, std::uint32_t xid);
  void send_error(ErrorType type, std::uint16_t code, std::uint32_t xid,
                  const Bytes& offending);
  /// Moves a buffered frame out of buffers_ (or nullopt if the id is
  /// unknown). Actions run on the returned frame, never on a reference into
  /// buffers_: an output to the controller punts again and grows buffers_.
  std::optional<Bytes> take_buffered(std::uint32_t buffer_id);
  /// Keeps a released frame's storage for the next punt.
  void recycle_frame(Bytes&& frame);

  sim::EventLoop& loop_;
  Config config_;
  FlowTable table_;
  // Exact-match fast path in front of table_; handles validated against
  // table_.generation().
  MicroflowCache microflow_;
  std::map<std::uint16_t, PortState> ports_;
  ChannelEndpoint* channel_ = nullptr;
  /// Every message to the controller is encoded here (see ofp::encode_into).
  Bytes tx_;
  /// apply_actions' copy-on-first-write copy, kept between frames.
  Bytes rewrite_;
  Instruments metrics_;
  std::uint32_t next_xid_ = 1;
  std::function<void(const FlowMod&)> flow_mod_observer_;
  bool fail_safe_ = false;
  Timestamp last_channel_rx_ = 0;

  // Packet buffer: miss frames held for controller-directed release.
  struct BufferedPacket {
    std::uint32_t id = 0;
    std::uint16_t in_port = 0;
    Bytes frame;
  };
  std::vector<BufferedPacket> buffers_;
  /// Storage of released frames, reused by the next punt. buffers_ and
  /// spare_frames_ together hold at most n_buffers frames.
  std::vector<Bytes> spare_frames_;
  std::uint32_t next_buffer_id_ = 1;

  // L2 learning table backing the NORMAL action ("normal processing
  // pipeline" in the paper's action taxonomy).
  std::map<MacAddress, std::uint16_t> mac_table_;

  // Policing queues keyed by (port, queue_id).
  struct Queue {
    TokenBucket bucket{0, 0};
    QueueCounters counters;
  };
  std::map<std::pair<std::uint16_t, std::uint32_t>, Queue> queues_;

  std::unique_ptr<sim::PeriodicTimer> expiry_timer_;
};

}  // namespace hw::ofp
