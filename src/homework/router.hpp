// HomeworkRouter: the whole of the paper's Figure 5 wired together — the
// OpenFlow datapath (Open vSwitch stand-in), the NOX controller carrying the
// DHCP server, DNS proxy, forwarding, event-export and control-API modules,
// the hwdb measurement plane, the policy engine with its USB monitor, the
// wireless measurement map, and the upstream ISP cloud on the uplink port.
//
// Devices (sim::Host) attach to numbered ports over duplex links; wireless
// devices additionally register with the wireless map so their RSSI and
// retries appear in the Links table.
//
// One router can serve a street of homes: add_home() gives the controller one
// more home datapath over its own framed channel. Every module keys its state
// by datapath id, so homes that reuse the same device MACs and addresses stay
// apart. The uplink, snapshots, warm restart and fault surfaces belong to the
// first home, the one the router is built for.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "homework/control_api.hpp"
#include "homework/dhcp_server.hpp"
#include "homework/dns_proxy.hpp"
#include "homework/event_export.hpp"
#include "homework/forwarding.hpp"
#include "homework/metrics_export.hpp"
#include "homework/upstream.hpp"
#include "homework/wireless_map.hpp"
#include "hwdb/database.hpp"
#include "nox/controller.hpp"
#include "nox/liveness.hpp"
#include "openflow/datapath.hpp"
#include "openflow/stream_channel.hpp"
#include "policy/engine.hpp"
#include "reconcile/desired_state.hpp"
#include "reconcile/reconciler.hpp"
#include "sim/fault_injector.hpp"
#include "sim/host.hpp"
#include "sim/trace.hpp"
#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class HomeworkRouter {
 public:
  /// How long start() runs the loop to let the OpenFlow handshake and module
  /// table setup settle. Also the canonical snapshot phase offset: periodic
  /// captures taken at k * interval + kBootSettle land after the
  /// integer-second module timer cascades (liveness echo, hwdb RPC acks)
  /// have drained, so a resumed home whose loop originates at
  /// captured_at - kBootSettle reaches the capture instant exactly at the
  /// end of its own boot settle.
  static constexpr Duration kBootSettle = 10 * kMillisecond;

  struct Config {
    Ipv4Address router_ip{192, 168, 1, 1};
    Ipv4Subnet subnet{Ipv4Address{192, 168, 1, 0}, 24};
    Ipv4Address pool_start{192, 168, 1, 100};
    Ipv4Address pool_end{192, 168, 1, 199};
    std::uint32_t lease_secs = 3600;
    /// Unclaimed-DHCP-offer hold before the sweep reclaims the address
    /// (DhcpServer::Config::offer_hold).
    Duration dhcp_offer_hold = 10 * kSecond;
    MacAddress router_mac = MacAddress::from_index(0xffffff);
    DeviceRegistry::AdmissionDefault admission =
        DeviceRegistry::AdmissionDefault::Pending;
    bool isolate = true;
    std::uint16_t flow_idle_timeout = 10;
    Upstream::Config upstream;
    sim::WirelessConfig wireless;
    sim::Position ap_position{5, 5};
    ofp::Datapath::Config datapath;
    EventExport::Config event_export;
    MetricsExport::Config metrics_export;
    nox::LivenessMonitor::Config liveness;
    /// The controller secure channel runs OpenFlow wire framing over a
    /// byte pipe (partial/coalesced reads, mid-message cuts on faults).
    Duration channel_latency = 100;  // controller channel, microseconds
    /// Extra per-send jitter on the controller channel.
    Duration channel_jitter = 0;
    /// Max bytes per stream read (0 = unbounded); small values force the
    /// framer to reassemble messages from partial reads.
    std::size_t channel_mtu = 0;
    std::uint16_t uplink_port = 1;
    /// How (re)joining datapaths get their flow setup. Replay blindly
    /// re-sends every module's flows (the legacy resync). Reconcile runs the
    /// goal-state reconciler: desired state is diffed against a flow-stats
    /// readback and only the delta is sent.
    enum class Resync { Replay, Reconcile };
    Resync resync = Resync::Reconcile;
    /// Records every frame crossing the uplink into uplink_trace(), from
    /// which sim::write_pcap produces a tcpdump-compatible capture.
    bool capture_uplink = false;
    /// Ring cap on the uplink trace (0 = unbounded); dropped frames are
    /// counted in Trace::dropped().
    std::size_t uplink_trace_max = 0;
  };

  /// `metrics` is the registry every instrument of this router — subsystems
  /// and leaf modules alike — attaches to. It defaults to the calling
  /// thread's active registry, so existing single-home callers land in the
  /// process-wide registry while a fleet hands each home its own.
  /// The router passes it explicitly to the subsystems it constructs and
  /// additionally installs it as the thread's scoped registry for the
  /// duration of construction/attachment, so modules without a registry
  /// parameter (DHCP, DNS, links, …) inherit it too.
  HomeworkRouter(sim::EventLoop& loop, Rng& rng, Config config,
                 telemetry::MetricRegistry& metrics =
                     telemetry::MetricRegistry::current());
  ~HomeworkRouter();
  HomeworkRouter(const HomeworkRouter&) = delete;
  HomeworkRouter& operator=(const HomeworkRouter&) = delete;

  /// Boots the platform: starts the controller components and completes the
  /// OpenFlow handshake (runs the loop briefly).
  void start();

  /// Adds one more home datapath, built like the first and connected to
  /// this router's controller (at once if started, else by start()). The
  /// k-th added home gets dpid = first dpid + k. Added homes carry device
  /// ports only: the uplink to the ISP cloud is the first home's.
  nox::DatapathId add_home();

  /// Attachment of a device on the next free port of home `dpid` (the first
  /// home by default). Wireless devices give a position in the home; wired
  /// pass std::nullopt.
  struct Attachment {
    std::uint16_t port = 0;
    sim::DuplexLink* link = nullptr;
    nox::DatapathId dpid = 0;
  };
  Attachment attach_device(sim::Host& host,
                           std::optional<sim::Position> position,
                           sim::LinkChannel::Config link_config = {},
                           std::optional<nox::DatapathId> dpid = std::nullopt);
  void detach_device(const Attachment& attachment, MacAddress mac);

  /// Moves a wireless device (the Figure 2 artifact walks around the house).
  void move_device(MacAddress mac, sim::Position position);

  // -- Subsystem access --------------------------------------------------------
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  /// The first home's datapath and controller channel.
  [[nodiscard]] ofp::Datapath& datapath() { return *first_home_.datapath; }
  [[nodiscard]] ofp::StreamConnection& connection() {
    return *first_home_.connection;
  }
  /// The datapath of home `dpid`; null if this router serves no such home.
  [[nodiscard]] ofp::Datapath* find_datapath(nox::DatapathId dpid);
  [[nodiscard]] nox::Controller& controller() { return *controller_; }
  [[nodiscard]] nox::LivenessMonitor& liveness() { return *liveness_; }
  [[nodiscard]] hwdb::Database& db() { return *db_; }
  [[nodiscard]] DeviceRegistry& registry() { return *registry_; }
  [[nodiscard]] policy::PolicyEngine& policy() { return *policy_; }
  [[nodiscard]] WirelessMap& wireless() { return *wireless_; }
  [[nodiscard]] Upstream& upstream() { return *upstream_; }
  [[nodiscard]] DhcpServer& dhcp() { return *dhcp_; }
  [[nodiscard]] DnsProxy& dns() { return *dns_; }
  [[nodiscard]] Forwarding& forwarding() { return *forwarding_; }
  [[nodiscard]] EventExport& event_export() { return *export_; }
  [[nodiscard]] MetricsExport& metrics_export() { return *metrics_export_; }
  [[nodiscard]] ControlApi& control_api() { return *control_api_; }
  /// Goal-state store backing the reconciler; null in Replay mode.
  [[nodiscard]] reconcile::DesiredStore* desired_store() {
    return desired_.get();
  }
  /// The reconciler component; null in Replay mode.
  [[nodiscard]] reconcile::Reconciler* reconciler() { return reconciler_; }
  [[nodiscard]] telemetry::MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Uplink capture (points "uplink-tx"/"uplink-rx"); empty unless
  /// config.capture_uplink was set.
  [[nodiscard]] sim::Trace& uplink_trace() { return uplink_trace_; }

  /// Checkpoint/restore coordinator with the router's state layers
  /// pre-registered ("flow-table", "hwdb", "dhcp", "registry", "policy",
  /// and — in Reconcile mode — "desired").
  /// Callers append their own layers (RNG streams, telemetry — telemetry
  /// last) before capturing or restoring.
  [[nodiscard]] snapshot::SnapshotCoordinator& snapshots() { return *snapshots_; }

  /// Restarts the first home's datapath and restores its flow table from the
  /// last captured snapshot instead of cold-wiping; falls back to a cold
  /// restart when no snapshot exists. The controller's liveness resync then
  /// heals the table: in Reconcile mode one reconcile round reads the
  /// restored table back and sends only the delta; in Replay mode the legacy
  /// path re-sends every module's (idempotent) flow setup.
  Status warm_restart();

  /// Registers the first home's fault surfaces with a chaos injector: the
  /// controller secure channel (ControllerOutage severs/restores it) and the
  /// datapath (DatapathRestart cold-boots it). Device links are registered
  /// by the caller per attachment (it owns their names).
  void attach_faults(sim::FaultInjector& faults);

 private:
  /// Wireless TX accounting shim between a device link and its port.
  class WirelessIngress;
  /// Trace-recording shim (pcap capture points).
  class TraceShim;

  /// One home datapath served by this router's controller.
  struct Home {
    std::unique_ptr<ofp::Datapath> datapath;
    std::unique_ptr<ofp::StreamConnection> connection;
    std::uint16_t next_port = 2;  // 1 is the uplink
  };
  [[nodiscard]] Home build_home(nox::DatapathId dpid);
  void connect_home(Home& home);
  [[nodiscard]] Home* find_home(nox::DatapathId dpid);
  /// Out-of-band policing queue (the ovs-vsctl role), sized for ~250 ms of
  /// traffic at the cap with a sane floor, on home `dpid`'s datapath.
  void configure_queue(nox::DatapathId dpid, std::uint16_t port,
                       std::uint32_t queue_id, std::uint64_t rate_bps);

  sim::EventLoop& loop_;
  Rng& rng_;
  Config config_;
  telemetry::MetricRegistry& metrics_;

  std::unique_ptr<hwdb::Database> db_;
  std::unique_ptr<DeviceRegistry> registry_;
  std::unique_ptr<policy::PolicyEngine> policy_;
  std::unique_ptr<WirelessMap> wireless_;
  /// The home the router is built for, held inline so a one-home router
  /// allocates nothing extra; add_home() appends to added_homes_.
  Home first_home_;
  std::vector<Home> added_homes_;
  std::unique_ptr<nox::Controller> controller_;
  std::unique_ptr<Upstream> upstream_;

  // Raw module pointers (owned by the controller).
  DhcpServer* dhcp_ = nullptr;
  DnsProxy* dns_ = nullptr;
  Forwarding* forwarding_ = nullptr;
  EventExport* export_ = nullptr;
  MetricsExport* metrics_export_ = nullptr;
  ControlApi* control_api_ = nullptr;
  nox::LivenessMonitor* liveness_ = nullptr;

  std::unique_ptr<reconcile::DesiredStore> desired_;
  reconcile::Reconciler* reconciler_ = nullptr;  // owned by the controller
  /// Last rate cap pushed per "dpid|mac" (change detection for the QoS hook).
  std::map<std::string, std::uint64_t> applied_qos_;

  std::unique_ptr<snapshot::SnapshotCoordinator> snapshots_;
  std::vector<std::unique_ptr<sim::DuplexLink>> links_;
  std::vector<std::unique_ptr<WirelessIngress>> wireless_shims_;
  sim::Trace uplink_trace_;
  std::vector<std::unique_ptr<TraceShim>> trace_shims_;
  bool started_ = false;
};

}  // namespace hw::homework
