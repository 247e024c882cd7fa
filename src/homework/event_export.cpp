#include "homework/event_export.hpp"

#include <algorithm>

#include "net/app_map.hpp"
#include "util/logging.hpp"

namespace hw::homework {
namespace {
constexpr std::string_view kLog = "export";
}  // namespace

EventExport::EventExport(Config config, hwdb::Database& db,
                         DeviceRegistry& registry, WirelessMap* wireless)
    : Component(kName),
      config_(config),
      db_(db),
      registry_(registry),
      wireless_(wireless) {}

EventExport::~EventExport() = default;

Status EventExport::create_tables(hwdb::Database& db, const Config& config) {
  using hwdb::ColumnType;
  if (auto s = db.create_table(
          hwdb::Schema("Flows",
                       {{"device", ColumnType::Text},
                        {"src_ip", ColumnType::Text},
                        {"dst_ip", ColumnType::Text},
                        {"proto", ColumnType::Int},
                        {"sport", ColumnType::Int},
                        {"dport", ColumnType::Int},
                        {"app", ColumnType::Text},
                        {"bytes", ColumnType::Int},
                        {"packets", ColumnType::Int}}),
          config.flows_capacity);
      !s.ok()) {
    return s;
  }
  if (auto s = db.create_table(hwdb::Schema("Links", {{"mac", ColumnType::Text},
                                                      {"rssi", ColumnType::Real},
                                                      {"retries", ColumnType::Int},
                                                      {"tx", ColumnType::Int}}),
                               config.links_capacity);
      !s.ok()) {
    return s;
  }
  return db.create_table(
      hwdb::Schema("Leases", {{"mac", ColumnType::Text},
                              {"ip", ColumnType::Text},
                              {"hostname", ColumnType::Text},
                              {"event", ColumnType::Text},
                              {"state", ColumnType::Text}}),
      config.leases_capacity);
}

void EventExport::install(nox::Controller& ctl) {
  Component::install(ctl);
  if (db_.table("Flows") == nullptr) {
    if (auto s = create_tables(db_, config_); !s.ok()) {
      HW_LOG_ERROR(kLog, "cannot create tables: %s", s.error().message.c_str());
    }
  }
  registry_.add_listener([this](RegistryEvent ev, const DeviceRecord& rec) {
    on_registry_event(ev, rec);
  });
  flow_timer_ = std::make_unique<sim::PeriodicTimer>(
      ctl.loop(), config_.flow_poll, [this] { poll_flows(); });
  flow_timer_->start();
  link_timer_ = std::make_unique<sim::PeriodicTimer>(
      ctl.loop(), config_.link_poll, [this] { poll_links(); });
  link_timer_->start();
}

void EventExport::handle_datapath_join(nox::DatapathId dpid,
                                       const ofp::FeaturesReply&) {
  // A datapath rejoins after every resync: poll it once, not once per join.
  if (std::ranges::find(datapaths_, dpid) == datapaths_.end()) {
    datapaths_.push_back(dpid);
  }
}

EventExport::FlowId EventExport::flow_id(nox::DatapathId dpid,
                                         const ofp::Match& match) {
  const ofp::FlowKey key = ofp::apply(ofp::FlowMask::from_wildcards(match.wildcards),
                                      ofp::FlowKey::from_match(match));
  return {dpid, match.wildcards, key.w};
}

void EventExport::handle_flow_removed(nox::DatapathId dpid,
                                      const ofp::FlowRemoved& fr) {
  prev_.erase(flow_id(dpid, fr.match));
}

void EventExport::poll_flows() {
  metrics_.stats_polls.inc();
  for (const auto dpid : datapaths_) {
    ofp::StatsRequest req;
    req.type = ofp::StatsType::Flow;
    req.body = ofp::FlowStatsRequest{};
    controller().request_stats(
        dpid, req, [this, dpid](const ofp::StatsReply& reply) {
          const auto* flows =
              std::get_if<std::vector<ofp::FlowStatsEntry>>(&reply.body);
          if (flows != nullptr) export_flow_stats(dpid, *flows);
        });
  }
}

void EventExport::export_flow_stats(
    nox::DatapathId dpid, const std::vector<ofp::FlowStatsEntry>& entries) {
  for (const auto& e : entries) {
    // Only the exact-match forwarding band describes end-user traffic; the
    // wildcard service rules (DHCP/DNS/ARP interception) are skipped.
    if (e.match.wildcards != 0 &&
        (e.match.nw_src_ignored_bits() > 0 || e.match.nw_dst_ignored_bits() > 0)) {
      continue;
    }
    if (e.match.dl_type != static_cast<std::uint16_t>(net::EtherType::Ipv4)) {
      continue;
    }
    // Deny rules (empty actions or the OFPP_MAX null-port drop): nothing
    // actually transited, keep them out of the bandwidth accounting.
    if (e.actions.empty()) continue;
    if (e.actions.size() == 1) {
      if (const auto* out = std::get_if<ofp::ActionOutput>(&e.actions[0]);
          out != nullptr && out->port >= ofp::port_no(ofp::Port::Max)) {
        continue;
      }
    }
    auto& prev = prev_[flow_id(dpid, e.match)];
    // A flow whose age or counters went backwards is a new entry for the
    // same match (the datapath restarted, or the rule was re-installed):
    // everything it counted is new.
    const bool reinstalled =
        std::tie(e.duration_sec, e.duration_nsec) <
            std::tie(prev.duration_sec, prev.duration_nsec) ||
        e.packet_count < prev.packets || e.byte_count < prev.bytes;
    const std::uint64_t dp =
        reinstalled ? e.packet_count : e.packet_count - prev.packets;
    const std::uint64_t db_bytes =
        reinstalled ? e.byte_count : e.byte_count - prev.bytes;
    prev = {e.packet_count, e.byte_count, e.duration_sec, e.duration_nsec};
    if (dp == 0) continue;  // idle this interval

    // Attribute to the home device on one end of the flow.
    std::string device = "unknown";
    if (const DeviceRecord* rec = registry_.find_by_ip(dpid, e.match.nw_src)) {
      device = rec->mac.to_string();
    } else if (const DeviceRecord* rec =
                   registry_.find_by_ip(dpid, e.match.nw_dst)) {
      device = rec->mac.to_string();
    }

    net::FiveTuple tuple;
    tuple.src_ip = e.match.nw_src;
    tuple.dst_ip = e.match.nw_dst;
    tuple.protocol = e.match.nw_proto;
    tuple.src_port = e.match.tp_src;
    tuple.dst_port = e.match.tp_dst;
    const std::string app = net::app_protocol_name(net::classify_app(tuple));

    using hwdb::ValueRef;
    auto status = db_.insert(
        "Flows",
        {ValueRef::of_text(device),
         ValueRef::of_text(e.match.nw_src.to_string()),
         ValueRef::of_text(e.match.nw_dst.to_string()),
         ValueRef::of_int(e.match.nw_proto), ValueRef::of_int(e.match.tp_src),
         ValueRef::of_int(e.match.tp_dst), ValueRef::of_text(app),
         ValueRef::of_int(static_cast<std::int64_t>(db_bytes)),
         ValueRef::of_int(static_cast<std::int64_t>(dp))});
    if (status.ok()) metrics_.flow_rows.inc();
  }
}

void EventExport::poll_links() {
  if (wireless_ == nullptr) return;
  for (const auto& sample : wireless_->sample_all()) {
    auto& prev = prev_link_[sample.mac];
    const std::uint64_t d_retries = sample.retries - prev.retries;
    const std::uint64_t d_tx = sample.tx_frames - prev.tx;
    prev.retries = sample.retries;
    prev.tx = sample.tx_frames;
    using hwdb::ValueRef;
    auto status = db_.insert(
        "Links", {ValueRef::of_text(sample.mac.to_string()),
                  ValueRef::of_real(sample.rssi_dbm),
                  ValueRef::of_int(static_cast<std::int64_t>(d_retries)),
                  ValueRef::of_int(static_cast<std::int64_t>(d_tx))});
    if (status.ok()) metrics_.link_rows.inc();
  }
}

void EventExport::on_registry_event(RegistryEvent ev, const DeviceRecord& rec) {
  switch (ev) {
    case RegistryEvent::LeaseGranted:
    case RegistryEvent::LeaseRenewed:
    case RegistryEvent::LeaseReleased:
    case RegistryEvent::LeaseExpired:
    case RegistryEvent::StateChanged:
    case RegistryEvent::Discovered:
      break;
    default:
      return;
  }
  const std::string ip = rec.lease ? rec.lease->ip.to_string() : "";
  using hwdb::ValueRef;
  auto status = db_.insert(
      "Leases", {ValueRef::of_text(rec.mac.to_string()), ValueRef::of_text(ip),
                 ValueRef::of_text(rec.hostname), ValueRef::of_text(to_string(ev)),
                 ValueRef::of_text(to_string(rec.state))});
  if (status.ok()) metrics_.lease_rows.inc();
}

}  // namespace hw::homework
