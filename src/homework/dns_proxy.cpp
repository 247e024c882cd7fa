#include "homework/dns_proxy.hpp"

#include "net/packet.hpp"
#include "util/logging.hpp"

namespace hw::homework {
namespace {
constexpr std::string_view kLog = "dns";
}  // namespace

DnsProxy::DnsProxy(Config config, DeviceRegistry& registry,
                   policy::PolicyEngine& policy)
    : Component(kName), config_(config), registry_(registry), policy_(policy) {}

void DnsProxy::contribute_flows(nox::DatapathId, nox::FlowIntentSink& sink) {
  // All DNS traffic (queries out, answers back) comes to the controller.
  nox::FlowIntent query;
  query.key = "dns:query";
  query.match = ofp::Match::any();
  query.match.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4))
      .with_nw_proto(static_cast<std::uint8_t>(net::IpProto::Udp))
      .with_tp_dst(net::kDnsPort);
  query.actions = ofp::send_to_controller(1024);
  query.priority = 0xfffe;
  sink.add(std::move(query));

  nox::FlowIntent answer;
  answer.key = "dns:answer";
  answer.match = ofp::Match::any();
  answer.match.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4))
      .with_nw_proto(static_cast<std::uint8_t>(net::IpProto::Udp))
      .with_tp_src(net::kDnsPort);
  answer.actions = ofp::send_to_controller(1024);
  answer.priority = 0xfffe;
  sink.add(std::move(answer));
}

nox::Disposition DnsProxy::handle_packet_in(const nox::PacketInEvent& ev) {
  if (!ev.packet.is_dns()) return nox::Disposition::Continue;
  if (ev.packet.udp->dst_port == net::kDnsPort) {
    handle_query(ev);
  } else {
    handle_response(ev);
  }
  return nox::Disposition::Stop;
}

void DnsProxy::handle_query(const nox::PacketInEvent& ev) {
  metrics_.queries.inc();
  const MacAddress device = ev.packet.eth.src;
  registry_.note_location(ev.dpid, device, ev.msg.in_port);

  const DeviceRecord* rec = registry_.find(ev.dpid, device);
  if (rec == nullptr || rec->state != DeviceState::Permitted || !rec->lease) {
    metrics_.dropped_unpermitted.inc();
    return;  // drop silently; unadmitted devices get no resolution
  }

  auto msg = net::DnsMessage::parse(ev.packet.l4_payload);
  if (!msg || msg.value().questions.empty()) return;
  const auto& query = msg.value();
  const std::string qname = query.questions.front().name;

  if (!policy_.domain_allowed(ev.dpid, device, qname)) {
    metrics_.blocked.inc();
    auto refusal = query.make_response();
    refusal.rcode = net::DnsRcode::NxDomain;
    send_to_device(ev.dpid, device, ev.msg.in_port, ev.packet.ip->src,
                   ev.packet.udp->src_port, refusal);
    HW_LOG_INFO(kLog, "blocked %s for %s", qname.c_str(),
                device.to_string().c_str());
    return;
  }

  // Remember where the answer should go, then relay upstream unchanged
  // (transparent proxy: source stays the client, so the upstream reply
  // comes back through our port-53 interception rule).
  pending_[{ev.dpid, ev.packet.ip->src.value(), query.id}] =
      PendingQuery{device, ev.msg.in_port, qname};
  metrics_.forwarded.inc();
  relay_upstream(ev.dpid, ev.packet);
}

void DnsProxy::relay_upstream(nox::DatapathId dpid,
                              const net::ParsedPacket& packet) {
  ofp::PacketOut po;
  po.in_port = ofp::port_no(ofp::Port::None);
  po.actions = {ofp::ActionSetDlSrc{config_.router_mac},
                ofp::ActionSetDlDst{config_.upstream_gw_mac},
                ofp::ActionOutput{config_.uplink_port, 0}};
  // Rebuild the original frame from the parsed packet (the packet-in data
  // may be the full frame; reconstruct to be robust to truncation).
  po.data = net::build_udp(packet.eth.src, packet.eth.dst, packet.ip->src,
                           packet.ip->dst, packet.udp->src_port,
                           packet.udp->dst_port, packet.l4_payload);
  controller().send_packet_out(dpid, po);
}

void DnsProxy::handle_response(const nox::PacketInEvent& ev) {
  auto msg = net::DnsMessage::parse(ev.packet.l4_payload);
  if (!msg) return;
  const auto& resp = msg.value();

  // Is this the answer to one of our own reverse lookups?
  if (ev.packet.ip->dst == config_.router_ip) {
    auto it = reverse_pending_.find(resp.id);
    if (it == reverse_pending_.end()) return;
    PendingReverse pending = std::move(it->second);
    reverse_pending_.erase(it);
    controller().loop().cancel(pending.timeout);

    std::string name;
    for (const auto& rec : resp.answers) {
      if (rec.rtype == net::DnsType::Ptr) {
        name = rec.target;
        break;
      }
    }
    FlowVerdict verdict = FlowVerdict::Deny;
    if (!name.empty() &&
        policy_.domain_allowed(pending.dpid, pending.device, name)) {
      verdict = FlowVerdict::Allow;
      // Cache so subsequent flows to this address pass synchronously.
      auto& entry = cache_[{pending.dpid, pending.device}][pending.target];
      entry.names.insert(name);
      entry.expires_at = controller().loop().now() +
                         static_cast<Duration>(config_.cache_ttl_secs) * kSecond;
      metrics_.cache_entries.inc();
    }
    pending.cb(verdict);
    return;
  }

  // Otherwise: an upstream answer for a client query we relayed.
  auto it = pending_.find({ev.dpid, ev.packet.ip->dst.value(), resp.id});
  if (it == pending_.end()) return;
  const PendingQuery pending = it->second;
  pending_.erase(it);

  record_answers(ev.dpid, pending.device, resp);
  metrics_.responses.inc();

  const DeviceRecord* rec = registry_.find(ev.dpid, pending.device);
  if (rec == nullptr || !rec->lease) return;
  send_to_device(ev.dpid, pending.device, pending.device_port, rec->lease->ip,
                 ev.packet.udp->dst_port, resp);
}

void DnsProxy::record_answers(nox::DatapathId dpid, MacAddress device,
                              const net::DnsMessage& msg) {
  const Timestamp expiry =
      controller().loop().now() +
      static_cast<Duration>(config_.cache_ttl_secs) * kSecond;
  std::set<std::string> names;
  for (const auto& q : msg.questions) names.insert(q.name);
  for (const auto& rec : msg.answers) {
    if (rec.rtype == net::DnsType::Cname) {
      names.insert(rec.target);
      continue;
    }
    if (rec.rtype != net::DnsType::A) continue;
    auto& entry = cache_[{dpid, device}][rec.address];
    entry.names.insert(rec.name);
    entry.names.insert(names.begin(), names.end());
    entry.expires_at = expiry;
    metrics_.cache_entries.inc();
  }
}

void DnsProxy::send_to_device(nox::DatapathId dpid, MacAddress device_mac,
                              std::uint16_t device_port, Ipv4Address device_ip,
                              std::uint16_t device_udp_port,
                              const net::DnsMessage& msg) {
  ofp::PacketOut po;
  po.in_port = ofp::port_no(ofp::Port::None);
  po.actions = ofp::output_to(device_port);
  po.data = net::build_udp(config_.router_mac, device_mac, config_.router_ip,
                           device_ip, net::kDnsPort, device_udp_port,
                           msg.serialize());
  controller().send_packet_out(dpid, po);
}

DnsProxy::FlowVerdict DnsProxy::check_flow(nox::DatapathId dpid,
                                           MacAddress device,
                                           Ipv4Address dst) const {
  const auto restriction = policy_.restriction_for(dpid, device);
  if (restriction.network_blocked) return FlowVerdict::Deny;
  if (restriction.unrestricted()) return FlowVerdict::Allow;

  auto dev_it = cache_.find({dpid, device});
  if (dev_it != cache_.end()) {
    auto it = dev_it->second.find(dst);
    if (it != dev_it->second.end() &&
        it->second.expires_at > controller().loop().now()) {
      for (const auto& name : it->second.names) {
        if (restriction.domain_allowed(name)) return FlowVerdict::Allow;
      }
      return FlowVerdict::Deny;  // known names, none allowed
    }
  }
  return FlowVerdict::Unknown;  // "flow not matching previously requested names"
}

void DnsProxy::reverse_lookup(nox::DatapathId dpid, MacAddress device,
                              Ipv4Address dst,
                              std::function<void(FlowVerdict)> cb) {
  metrics_.reverse_lookups.inc();
  const std::uint16_t id = next_reverse_id_++;
  auto query = net::DnsMessage::query(id, net::DnsMessage::reverse_name(dst),
                                      net::DnsType::Ptr);

  PendingReverse pending;
  pending.dpid = dpid;
  pending.device = device;
  pending.target = dst;
  pending.cb = std::move(cb);
  pending.timeout = controller().loop().schedule(3 * kSecond, [this, id] {
    auto it = reverse_pending_.find(id);
    if (it == reverse_pending_.end()) return;
    auto cb = std::move(it->second.cb);
    reverse_pending_.erase(it);
    cb(FlowVerdict::Deny);  // fail closed
  });
  reverse_pending_.emplace(id, std::move(pending));

  ofp::PacketOut po;
  po.in_port = ofp::port_no(ofp::Port::None);
  po.actions = {ofp::ActionOutput{config_.uplink_port, 0}};
  po.data = net::build_udp(config_.router_mac, config_.upstream_gw_mac,
                           config_.router_ip, config_.upstream_dns, 5353,
                           net::kDnsPort, query.serialize());
  controller().send_packet_out(dpid, po);
}

std::vector<std::string> DnsProxy::names_for(nox::DatapathId dpid,
                                             MacAddress device) const {
  std::vector<std::string> out;
  auto it = cache_.find({dpid, device});
  if (it == cache_.end()) return out;
  std::set<std::string> names;
  for (const auto& [_, entry] : it->second) {
    names.insert(entry.names.begin(), entry.names.end());
  }
  out.assign(names.begin(), names.end());
  return out;
}

void DnsProxy::flush_cache() { cache_.clear(); }

}  // namespace hw::homework
