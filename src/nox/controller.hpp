// The NOX controller core: owns the secure-channel endpoints towards one or
// more datapaths, performs the OpenFlow handshake, parses events once and
// dispatches them through the ordered component chain, and exposes the
// flow-management API the Homework modules use.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "nox/component.hpp"
#include "openflow/channel.hpp"
#include "openflow/messages.hpp"
#include "sim/event_loop.hpp"
#include "telemetry/metrics.hpp"

namespace hw::nox {

class Controller {
 public:
  /// `metrics` scopes the controller's instruments; defaults to the calling
  /// thread's active registry.
  explicit Controller(sim::EventLoop& loop,
                      telemetry::MetricRegistry& metrics =
                          telemetry::MetricRegistry::current());
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // -- Component management ---------------------------------------------------
  /// Registers a component. Call before start(). Ownership transfers.
  void add_component(std::unique_ptr<Component> component);
  /// Installs all components in dependency order; throws std::runtime_error
  /// on unknown or cyclic dependencies.
  void start();
  /// Finds a registered component by name (for inter-module calls), nullptr
  /// if absent.
  [[nodiscard]] Component* component(const std::string& name) const;
  template <typename T>
  [[nodiscard]] T* component_as(const std::string& name) const {
    return dynamic_cast<T*>(component(name));
  }

  // -- Datapath connections ----------------------------------------------------
  /// Binds a secure-channel endpoint; the controller sends HELLO and
  /// FEATURES_REQUEST and announces the datapath to components on reply.
  void connect_datapath(ofp::ChannelEndpoint& channel);
  [[nodiscard]] std::vector<DatapathId> datapaths() const;
  [[nodiscard]] bool datapath_connected(DatapathId dpid) const;
  [[nodiscard]] const ofp::FeaturesReply* features(DatapathId dpid) const;

  // -- Send API used by components ---------------------------------------------
  void send_flow_mod(DatapathId dpid, const ofp::FlowMod& mod);
  void send_packet_out(DatapathId dpid, const ofp::PacketOut& po);
  /// Convenience: install a rule.
  void install_flow(DatapathId dpid, const ofp::Match& match,
                    ofp::ActionList actions, std::uint16_t priority = 0x8000,
                    std::uint16_t idle_timeout = 0, std::uint16_t hard_timeout = 0,
                    bool notify_removal = false, std::uint64_t cookie = 0);
  /// Convenience: delete rules covered by `match`.
  void delete_flows(DatapathId dpid, const ofp::Match& match);

  /// Async stats: the callback fires when the reply with the matching xid
  /// arrives.
  using StatsCallback = std::function<void(const ofp::StatsReply&)>;
  void request_stats(DatapathId dpid, const ofp::StatsRequest& req,
                     StatsCallback cb);

  /// Sends an echo request; callback fires on reply (liveness checks).
  void send_echo(DatapathId dpid, std::function<void()> on_reply);

  /// Sends a barrier request; `cb` fires when the datapath confirms every
  /// earlier message on the channel has been processed.
  void send_barrier(DatapathId dpid, std::function<void()> cb);

  /// Re-synchronizes a datapath after a channel outage or restart: restarts
  /// the handshake, then on FEATURES_REPLY either replays every component's
  /// flow setup (legacy path) or hands off to the resync hook (reconciler).
  /// on_resynced (if set) fires once the flows are proven in the table. Also
  /// triggered automatically when an identified datapath re-sends HELLO.
  /// If `dpid` is not currently identified, the request is counted in
  /// nox.channel.resync_skipped and re-armed: the next FEATURES_REPLY that
  /// identifies `dpid` is treated as a re-sync even on a fresh connection.
  void resync_datapath(DatapathId dpid);
  void on_resynced(std::function<void(DatapathId)> fn) {
    on_resynced_ = std::move(fn);
  }

  // -- Goal-state integration --------------------------------------------------
  /// Collects every component's flow contributions for `dpid` into `sink`
  /// (install order — later contributions of the same key win downstream).
  void collect_flow_intents(DatapathId dpid, FlowIntentSink& sink) const;
  /// Legacy imperative path: wires every contributed flow straight to the
  /// datapath as an Add (cookie = desired_cookie(key)).
  void replay_flow_setup(DatapathId dpid);
  /// When set, (re)joins no longer replay flow setup; the hook is invoked
  /// with `resync` true on rejoins/re-armed resyncs and is expected to drive
  /// a reconcile round that ends in confirm_resync().
  void set_resync_hook(std::function<void(DatapathId, bool resync)> hook) {
    resync_hook_ = std::move(hook);
  }
  /// Reconciler callback once a resync-origin round has proven the table
  /// converged: accounts `flows` as resynced and fires on_resynced.
  void confirm_resync(DatapathId dpid, std::uint64_t flows);

  [[nodiscard]] sim::EventLoop& loop() const { return loop_; }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : packet_ins{reg, "nox.controller.packet_ins"},
          packet_outs{reg, "nox.controller.packet_outs"},
          flow_mods{reg, "nox.controller.flow_mods"},
          flow_removed{reg, "nox.controller.flow_removed"},
          errors{reg, "nox.controller.errors"},
          unparseable_packets{reg, "nox.controller.unparseable_packets"},
          reconnects{reg, "nox.channel.reconnects"},
          resynced_flows{reg, "nox.channel.resynced_flows"},
          resync_skipped{reg, "nox.channel.resync_skipped"},
          packet_in_dispatch_ns{reg, "nox.controller.packet_in_dispatch_ns"} {}
    telemetry::Counter packet_ins;
    telemetry::Counter packet_outs;
    telemetry::Counter flow_mods;
    telemetry::Counter flow_removed;
    telemetry::Counter errors;
    telemetry::Counter unparseable_packets;
    telemetry::Counter reconnects;      // channel re-handshakes driven
    telemetry::Counter resynced_flows;  // flow-mods replayed by re-syncs
    telemetry::Counter resync_skipped;  // resyncs requested for unknown dpids
    /// Packet-in dispatch latency (nanoseconds through the component chain).
    telemetry::Histogram packet_in_dispatch_ns;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

 private:
  struct Connection {
    ofp::ChannelEndpoint* channel = nullptr;
    std::optional<DatapathId> dpid;  // known after FEATURES_REPLY
    ofp::FeaturesReply features;
  };

  void handle_message(Connection& conn, const Bytes& encoded);
  /// Encodes `msg` into tx_ and sends it on `conn`; T is one of
  /// ofp::Message's alternatives.
  template <typename T>
  void send(Connection& conn, std::uint32_t xid, const T& msg);
  void dispatch_packet_in(DatapathId dpid, const ofp::PacketIn& pi);
  std::uint32_t next_xid() { return next_xid_++; }
  Connection* find(DatapathId dpid);

  sim::EventLoop& loop_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<Component*> ordered_;  // install order after topo-sort
  bool started_ = false;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// Every message to a datapath is encoded here (see ofp::encode_into).
  Bytes tx_;
  std::map<std::uint32_t, StatsCallback> pending_stats_;
  // Flow-stats fragments (OFPSF_REPLY_MORE) accumulating per xid until the
  // final fragment releases the merged reply to the callback.
  std::map<std::uint32_t, std::vector<ofp::FlowStatsEntry>> partial_stats_;
  std::map<std::uint32_t, std::function<void()>> pending_echo_;
  std::map<std::uint32_t, std::function<void()>> pending_barrier_;
  std::function<void(DatapathId)> on_resynced_;
  std::function<void(DatapathId, bool)> resync_hook_;
  /// Dpids whose resync was requested while unidentified: the next
  /// FEATURES_REPLY naming them runs the full re-sync path.
  std::set<DatapathId> pending_resync_;
  std::uint32_t next_xid_ = 1;
  Instruments metrics_;
};

}  // namespace hw::nox
