#include "homework/router.hpp"

#include <algorithm>

namespace hw::homework {

/// Counts wireless transmissions (for the Links table's retry signal) on the
/// way from a device's link into its datapath port.
class HomeworkRouter::WirelessIngress final : public sim::FrameSink {
 public:
  WirelessIngress(WirelessMap& map, MacAddress mac, sim::FrameSink* next)
      : map_(map), mac_(mac), next_(next) {}

  void deliver(const Bytes& frame) override {
    map_.note_transmission(mac_);
    next_->deliver(frame);
  }

 private:
  WirelessMap& map_;
  MacAddress mac_;
  sim::FrameSink* next_;
};

/// Records frames at a named capture point, then passes them along.
class HomeworkRouter::TraceShim final : public sim::FrameSink {
 public:
  TraceShim(sim::EventLoop& loop, sim::Trace& trace, std::string point,
            sim::FrameSink* next)
      : loop_(loop), trace_(trace), point_(std::move(point)), next_(next) {}

  void deliver(const Bytes& frame) override {
    trace_.record(loop_.now(), point_, frame);
    if (next_ != nullptr) next_->deliver(frame);
  }

 private:
  sim::EventLoop& loop_;
  sim::Trace& trace_;
  std::string point_;
  sim::FrameSink* next_;
};

HomeworkRouter::HomeworkRouter(sim::EventLoop& loop, Rng& rng, Config config,
                               telemetry::MetricRegistry& metrics)
    : loop_(loop),
      rng_(rng),
      config_(config),
      metrics_(metrics),
      uplink_trace_(config_.uplink_trace_max) {
  // Leaf modules (DHCP, DNS, wireless, …) carry bare instruments; scope them
  // to this router's registry for the whole build.
  telemetry::ScopedMetricRegistry scope(metrics_);
  db_ = std::make_unique<hwdb::Database>(loop_, metrics_);
  registry_ = std::make_unique<DeviceRegistry>(config_.admission);
  registry_->set_default_dpid(config_.datapath.datapath_id);
  policy_ = std::make_unique<policy::PolicyEngine>([this] { return loop_.now(); });
  wireless_ = std::make_unique<WirelessMap>(config_.wireless, rng_,
                                            config_.ap_position);

  datapath_ = std::make_unique<ofp::Datapath>(loop_, config_.datapath, metrics_);
  ofp::StreamConnection::Config stream;
  stream.link.latency = config_.channel_latency;
  stream.link.jitter = config_.channel_jitter;
  stream.link.mtu = config_.channel_mtu;
  connection_ = std::make_unique<ofp::StreamConnection>(loop_, stream, &rng_);
  controller_ = std::make_unique<nox::Controller>(loop_, metrics_);

  upstream_ = std::make_unique<Upstream>(loop_, config_.upstream);

  // Modules (controller owns them; keep typed pointers for access).
  DhcpServer::Config dhcp_config;
  dhcp_config.server_ip = config_.router_ip;
  dhcp_config.subnet = config_.subnet;
  dhcp_config.pool_start = config_.pool_start;
  dhcp_config.pool_end = config_.pool_end;
  dhcp_config.lease_secs = config_.lease_secs;
  dhcp_config.router_mac = config_.router_mac;
  dhcp_config.isolate = config_.isolate;
  dhcp_config.offer_hold = config_.dhcp_offer_hold;
  auto dhcp = std::make_unique<DhcpServer>(dhcp_config, *registry_);
  dhcp_ = dhcp.get();

  DnsProxy::Config dns_config;
  dns_config.router_ip = config_.router_ip;
  dns_config.router_mac = config_.router_mac;
  dns_config.upstream_dns = config_.upstream.dns_ip;
  dns_config.uplink_port = config_.uplink_port;
  dns_config.upstream_gw_mac = config_.upstream.gw_mac;
  auto dns = std::make_unique<DnsProxy>(dns_config, *registry_, *policy_);
  dns_ = dns.get();

  Forwarding::Config fwd_config;
  fwd_config.router_ip = config_.router_ip;
  fwd_config.router_mac = config_.router_mac;
  fwd_config.subnet = config_.subnet;
  fwd_config.uplink_port = config_.uplink_port;
  fwd_config.upstream_gw_mac = config_.upstream.gw_mac;
  fwd_config.flow_idle_timeout = config_.flow_idle_timeout;
  // Queue configuration side channel (the ovs-vsctl role): policing buckets
  // sized for ~250 ms of traffic at the cap, with a sane floor.
  fwd_config.configure_queue = [this](std::uint16_t port, std::uint32_t queue_id,
                                      std::uint64_t rate_bps) {
    const std::uint64_t burst = std::max<std::uint64_t>(rate_bps / 8 / 4, 3036);
    datapath_->configure_queue(port, queue_id, rate_bps, burst);
  };
  auto fwd = std::make_unique<Forwarding>(fwd_config, *registry_, *policy_);
  forwarding_ = fwd.get();

  auto exp = std::make_unique<EventExport>(config_.event_export, *db_, *registry_,
                                           wireless_.get());
  export_ = exp.get();

  auto metrics_export =
      std::make_unique<MetricsExport>(config_.metrics_export, *db_, metrics_);
  metrics_export_ = metrics_export.get();

  auto api = std::make_unique<ControlApi>(*registry_, *policy_, *db_);
  control_api_ = api.get();

  // Registration order fixes the packet-in chain: DHCP and DNS interceptors
  // consume their traffic before the forwarding module sees it.
  controller_->add_component(std::move(dhcp));
  controller_->add_component(std::move(dns));
  controller_->add_component(std::move(fwd));
  controller_->add_component(std::move(exp));
  controller_->add_component(std::move(metrics_export));
  controller_->add_component(std::move(api));
  auto liveness = std::make_unique<nox::LivenessMonitor>(config_.liveness);
  liveness_ = liveness.get();
  controller_->add_component(std::move(liveness));

  // Recovery loop: once the watchdog hears a previously-dead datapath again
  // (channel restored), the controller re-syncs it — via the reconciler in
  // Reconcile mode, via full flow-setup replay in Replay mode.
  liveness_->on_recovered(
      [this](nox::DatapathId dpid) { controller_->resync_datapath(dpid); });

  if (config_.resync == Config::Resync::Reconcile) {
    desired_ = std::make_unique<reconcile::DesiredStore>();
    auto rec = std::make_unique<reconcile::Reconciler>(*desired_, metrics_);
    reconciler_ = rec.get();
    controller_->add_component(std::move(rec));
    reconciler_->bind_policy(*policy_);
    controller_->set_resync_hook([this](nox::DatapathId dpid, bool resync) {
      reconciler_->on_datapath_ready(dpid, resync);
    });

    // State fixups: each heals one divergence class between desired state
    // and the controller-side stores, reporting whether anything changed.
    reconcile::Reconciler::Hooks hooks;
    hooks.apply_admission = [this](nox::DatapathId dpid,
                                   const std::string& mac_text,
                                   reconcile::DeviceIntent::Admission want) {
      auto mac = MacAddress::parse(mac_text);
      if (!mac) return false;
      const DeviceState want_state =
          want == reconcile::DeviceIntent::Admission::Permitted
              ? DeviceState::Permitted
              : DeviceState::Denied;
      const DeviceRecord* rec = registry_->find(dpid, mac.value());
      if (rec != nullptr && rec->state == want_state) return false;
      return registry_->set_state(dpid, mac.value(), want_state, loop_.now());
    };
    hooks.adopt_lease = [this](nox::DatapathId dpid,
                               const std::string& mac_text, Ipv4Address ip) {
      auto mac = MacAddress::parse(mac_text);
      if (!mac) return false;
      bool changed = dhcp_->adopt_allocation(dpid, mac.value(), ip);
      const DeviceRecord* rec = registry_->find(dpid, mac.value());
      if (rec == nullptr || !rec->lease || rec->lease->ip != ip) {
        Lease lease;
        lease.ip = ip;
        lease.granted_at = loop_.now();
        lease.expires_at =
            loop_.now() + static_cast<Duration>(config_.lease_secs) * kSecond;
        if (rec != nullptr && rec->lease) lease.hostname = rec->lease->hostname;
        registry_->record_lease(dpid, mac.value(), lease,
                                rec != nullptr && rec->lease.has_value(),
                                loop_.now());
        changed = true;
      }
      return changed;
    };
    hooks.apply_qos = [this](nox::DatapathId dpid, const std::string& mac_text,
                             std::uint64_t rate_bps) {
      const std::string key = std::to_string(dpid) + "|" + mac_text;
      auto it = applied_qos_.find(key);
      const std::uint64_t current = it == applied_qos_.end() ? 0 : it->second;
      if (current == rate_bps) return false;
      if (rate_bps == 0) {
        applied_qos_.erase(key);
        return false;  // queue falls out of use; nothing to reconfigure
      }
      auto mac = MacAddress::parse(mac_text);
      if (!mac) return false;
      const DeviceRecord* rec = registry_->find(dpid, mac.value());
      if (rec == nullptr || !rec->lease) return false;
      const std::uint32_t queue_id = rec->lease->ip.value() & 0xffff;
      const std::uint64_t burst = std::max<std::uint64_t>(rate_bps / 8 / 4, 3036);
      datapath_->configure_queue(config_.uplink_port, queue_id, rate_bps, burst);
      applied_qos_[key] = rate_bps;
      return true;
    };
    reconciler_->set_hooks(std::move(hooks));

    // Imperative writers feed the goal state: admission/metadata via the
    // control API, scope bindings via the DHCP allocator.
    control_api_->bind_goal_state(*desired_, [this](nox::DatapathId dpid) {
      reconciler_->request_round(dpid);
    });
    dhcp_->set_allocation_observer([this](nox::DatapathId dpid, MacAddress mac,
                                          std::optional<Ipv4Address> ip) {
      desired_->state(dpid).device(mac.to_string()).lease_ip = ip;
    });
  }

  // Uplink port towards the ISP (Figure 5's "upstream" path), optionally
  // with pcap capture shims on both directions.
  sim::FrameSink* to_upstream = upstream_.get();
  if (config_.capture_uplink) {
    trace_shims_.push_back(std::make_unique<TraceShim>(
        loop_, uplink_trace_, "uplink-tx", upstream_.get()));
    to_upstream = trace_shims_.back().get();
  }
  datapath_->add_port(config_.uplink_port, "uplink",
                      MacAddress::from_index(0xfffff0), to_upstream);
  sim::FrameSink* from_upstream = datapath_->ingress(config_.uplink_port);
  if (config_.capture_uplink) {
    trace_shims_.push_back(std::make_unique<TraceShim>(
        loop_, uplink_trace_, "uplink-rx", from_upstream));
    from_upstream = trace_shims_.back().get();
  }
  upstream_->connect(from_upstream);

  // Checkpoint/restore: the router's durable state layers, in the order a
  // restore must rebuild them. Callers append RNG/telemetry layers.
  snapshots_ = std::make_unique<snapshot::SnapshotCoordinator>(loop_, metrics_);
  snapshots_->add_layer("flow-table", &datapath_->table());
  snapshots_->add_layer("hwdb", db_.get());
  snapshots_->add_layer("dhcp", dhcp_);
  snapshots_->add_layer("registry", registry_.get());
  snapshots_->add_layer("policy", policy_.get());
  if (desired_ != nullptr) snapshots_->add_layer("desired", desired_.get());
  snapshots_->add_layer("metrics-export", metrics_export_);
}

HomeworkRouter::~HomeworkRouter() = default;

void HomeworkRouter::start() {
  if (started_) return;
  controller_->start();
  datapath_->connect(connection_->datapath_end());
  controller_->connect_datapath(connection_->controller_end());
  // Let HELLO/FEATURES and the modules' table setup settle.
  loop_.run_for(kBootSettle);
  started_ = true;
}

HomeworkRouter::Attachment HomeworkRouter::attach_device(
    sim::Host& host, std::optional<sim::Position> position,
    sim::LinkChannel::Config link_config) {
  // Per-attachment links carry bare instruments; keep them in this router's
  // registry no matter which scope the caller runs under.
  telemetry::ScopedMetricRegistry scope(metrics_);
  const std::uint16_t port = next_port_++;
  links_.push_back(
      std::make_unique<sim::DuplexLink>(loop_, link_config, &rng_));
  sim::DuplexLink* link = links_.back().get();

  datapath_->add_port(port, "port" + std::to_string(port),
                      MacAddress::from_index(0xfff000u + port),
                      &link->b_to_a());
  link->b_to_a().connect(&host);

  sim::FrameSink* ingress = datapath_->ingress(port);
  if (position) {
    wireless_->place_station(host.mac(), *position);
    wireless_shims_.push_back(
        std::make_unique<WirelessIngress>(*wireless_, host.mac(), ingress));
    ingress = wireless_shims_.back().get();
  }
  link->a_to_b().connect(ingress);
  host.attach_uplink(&link->a_to_b());
  return Attachment{port, link};
}

void HomeworkRouter::detach_device(const Attachment& attachment, MacAddress mac) {
  datapath_->remove_port(attachment.port);
  wireless_->remove_station(mac);
  if (attachment.link != nullptr) {
    attachment.link->a_to_b().connect(nullptr);
    attachment.link->b_to_a().connect(nullptr);
  }
}

void HomeworkRouter::move_device(MacAddress mac, sim::Position position) {
  wireless_->place_station(mac, position);
}

Status HomeworkRouter::warm_restart() {
  datapath_->restart();
  const auto& image = snapshots_->last_image();
  if (!image) return Status::success();  // nothing captured yet: cold restart
  return snapshots_->restore_layers(image->bytes, {"flow-table"});
}

void HomeworkRouter::attach_faults(sim::FaultInjector& faults) {
  faults.set_controller_channel([this] { connection_->disconnect(); },
                                [this] { connection_->reconnect(); });
  faults.set_datapath_restart([this] { datapath_->restart(); });
  faults.set_warm_restart([this] { (void)warm_restart(); });
}

}  // namespace hw::homework
