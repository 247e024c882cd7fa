#include "homework/forwarding.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "util/logging.hpp"

namespace hw::homework {
namespace {
constexpr std::string_view kLog = "forwarding";
}  // namespace

Forwarding::Forwarding(Config config, DeviceRegistry& registry,
                       policy::PolicyEngine& policy)
    : Component(kName), config_(config), registry_(registry), policy_(policy) {}

void Forwarding::install(nox::Controller& ctl) {
  Component::install(ctl);
  dns_ = ctl.component_as<DnsProxy>(DnsProxy::kName);

  // Policy changes invalidate every admission decision: flush installed
  // flows and the DNS proxy's verdict cache so traffic re-admits afresh.
  policy_.on_change([this] {
    metrics_.policy_revocations.inc();
    revoke_all_flows();
    if (dns_ != nullptr) dns_->flush_cache();
  });

  // Device admission changes revoke that device's flows.
  registry_.add_listener([this](RegistryEvent ev, const DeviceRecord& rec) {
    if (ev == RegistryEvent::StateChanged && rec.lease &&
        rec.state != DeviceState::Permitted) {
      revoke_device_flows(rec.dpid, rec.lease->ip);
    }
    if ((ev == RegistryEvent::LeaseReleased || ev == RegistryEvent::LeaseExpired)) {
      // rec.lease is already cleared; nothing to revoke by address here —
      // idle timeouts clean the remnants up.
    }
  });
}

void Forwarding::contribute_flows(nox::DatapathId, nox::FlowIntentSink& sink) {
  // ARP is always handled at the controller (proxy ARP / mediation).
  nox::FlowIntent arp;
  arp.key = "fwd:arp";
  arp.match = ofp::Match::any();
  arp.match.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Arp));
  arp.actions = ofp::send_to_controller(512);
  arp.priority = 0xfffd;
  sink.add(std::move(arp));
}

void Forwarding::handle_datapath_join(nox::DatapathId dpid,
                                      const ofp::FeaturesReply&) {
  if (std::find(datapaths_.begin(), datapaths_.end(), dpid) ==
      datapaths_.end()) {
    datapaths_.push_back(dpid);
  }
}

nox::Disposition Forwarding::handle_packet_in(const nox::PacketInEvent& ev) {
  // DHCP and DNS are owned by the other modules (ordered before us).
  if (ev.packet.is_dhcp() || ev.packet.is_dns()) return nox::Disposition::Continue;

  if (ev.packet.arp) {
    handle_arp(ev);
    return nox::Disposition::Stop;
  }
  if (ev.packet.ip) {
    handle_ipv4(ev);
    return nox::Disposition::Stop;
  }
  return nox::Disposition::Continue;
}

void Forwarding::handle_arp(const nox::PacketInEvent& ev) {
  const auto& arp = *ev.packet.arp;
  registry_.note_location(ev.dpid, arp.sender_mac, ev.msg.in_port);
  if (arp.op != net::ArpOp::Request) return;

  // Proxy-ARP: the router answers for its own address and for every leased
  // device address, so devices never learn each other's MACs ("avoiding
  // direct Ethernet-layer communication between devices").
  const bool for_router = arp.target_ip == config_.router_ip;
  const bool for_device =
      registry_.find_by_ip(ev.dpid, arp.target_ip) != nullptr;
  if (!for_router && !for_device) return;

  net::ArpMessage reply;
  reply.op = net::ArpOp::Reply;
  reply.sender_mac = config_.router_mac;
  reply.sender_ip = arp.target_ip;
  reply.target_mac = arp.sender_mac;
  reply.target_ip = arp.sender_ip;

  ofp::PacketOut po;
  po.in_port = ofp::port_no(ofp::Port::None);
  po.actions = ofp::output_to(ev.msg.in_port);
  po.data = net::build_arp(reply);
  metrics_.arp_replies.inc();
  controller().send_packet_out(ev.dpid, po);
}

Forwarding::NextHop Forwarding::next_hop_for(nox::DatapathId dpid,
                                             Ipv4Address dst) const {
  NextHop hop;
  if (const DeviceRecord* rec = registry_.find_by_ip(dpid, dst);
      rec != nullptr && rec->port) {
    hop.port = *rec->port;
    hop.mac = rec->mac;
    hop.known = true;
    return hop;
  }
  if (!config_.subnet.contains(dst)) {
    hop.port = config_.uplink_port;
    hop.mac = config_.upstream_gw_mac;
    hop.known = true;
    return hop;
  }
  return hop;  // unknown local address
}

void Forwarding::handle_ipv4(const nox::PacketInEvent& ev) {
  const auto& ip = *ev.packet.ip;
  const MacAddress src_mac = ev.packet.eth.src;
  const bool from_upstream = ev.msg.in_port == config_.uplink_port;

  if (!from_upstream) {
    registry_.note_location(ev.dpid, src_mac, ev.msg.in_port);
    const DeviceRecord* rec = registry_.find(ev.dpid, src_mac);
    if (rec == nullptr || rec->state != DeviceState::Permitted || !rec->lease ||
        rec->lease->ip != ip.src) {
      // Unknown/unpermitted source or spoofed address: drop, and install a
      // short-lived drop rule to shed the packet-in load.
      metrics_.dropped_unknown_source.inc();
      install_pair(ev.dpid, ev.packet, ev.msg.in_port, ev.msg.buffer_id,
                   /*allowed=*/false);
      return;
    }
  }

  // Traffic to the router itself: answer pings, drop the rest.
  if (ip.dst == config_.router_ip) {
    if (ev.packet.icmp && ev.packet.icmp->type == net::IcmpType::EchoRequest) {
      ofp::PacketOut po;
      po.in_port = ofp::port_no(ofp::Port::None);
      po.actions = ofp::output_to(ev.msg.in_port);
      po.data = net::build_icmp_echo(
          config_.router_mac, ev.packet.eth.src, config_.router_ip, ip.src,
          net::IcmpType::EchoReply, ev.packet.icmp->identifier,
          ev.packet.icmp->sequence);
      metrics_.echo_replies.inc();
      controller().send_packet_out(ev.dpid, po);
    }
    return;
  }

  // Policy gate 1: blanket network access for the source device.
  if (!from_upstream && !policy_.network_allowed(ev.dpid, src_mac)) {
    install_pair(ev.dpid, ev.packet, ev.msg.in_port, ev.msg.buffer_id, false);
    return;
  }

  // Local destination must be a leased, permitted device.
  if (config_.subnet.contains(ip.dst)) {
    const DeviceRecord* dst_rec = registry_.find_by_ip(ev.dpid, ip.dst);
    const bool ok = dst_rec != nullptr &&
                    dst_rec->state == DeviceState::Permitted && dst_rec->port;
    install_pair(ev.dpid, ev.packet, ev.msg.in_port, ev.msg.buffer_id, ok);
    return;
  }

  // Inbound from upstream (e.g. the reverse rule idle-timed out while the
  // flow lived on): admit iff the local destination device could itself
  // initiate this exchange. Unknown verdicts fail closed — we never reverse-
  // look-up on behalf of inbound traffic.
  if (from_upstream) {
    const DeviceRecord* dst_rec = registry_.find_by_ip(ev.dpid, ip.dst);
    bool ok = dst_rec != nullptr && dst_rec->state == DeviceState::Permitted &&
              dst_rec->port.has_value() &&
              policy_.network_allowed(ev.dpid, dst_rec->mac);
    if (ok && dns_ != nullptr) {
      ok = dns_->check_flow(ev.dpid, dst_rec->mac, ip.src) ==
           DnsProxy::FlowVerdict::Allow;
    }
    install_pair(ev.dpid, ev.packet, ev.msg.in_port, ev.msg.buffer_id, ok);
    return;
  }

  const DnsProxy::FlowVerdict verdict =
      dns_ != nullptr ? dns_->check_flow(ev.dpid, src_mac, ip.dst)
                      : DnsProxy::FlowVerdict::Allow;
  switch (verdict) {
    case DnsProxy::FlowVerdict::Allow:
      install_pair(ev.dpid, ev.packet, ev.msg.in_port, ev.msg.buffer_id, true);
      return;
    case DnsProxy::FlowVerdict::Deny:
      install_pair(ev.dpid, ev.packet, ev.msg.in_port, ev.msg.buffer_id, false);
      return;
    case DnsProxy::FlowVerdict::Unknown: {
      // Paper §2: reverse-look the address up, then decide. The packet stays
      // buffered in the datapath until the verdict arrives.
      metrics_.reverse_lookups_triggered.inc();
      const auto dpid = ev.dpid;
      // The event dies with its frame. Header fields copy by value, but the
      // payload is a view into that frame: keep the headers only.
      auto packet = ev.packet;
      packet.l4_payload = {};
      const auto in_port = ev.msg.in_port;
      const auto buffer_id = ev.msg.buffer_id;
      dns_->reverse_lookup(dpid, src_mac, ip.dst,
                           [this, dpid, packet, in_port,
                            buffer_id](DnsProxy::FlowVerdict v) {
                             install_pair(dpid, packet, in_port, buffer_id,
                                          v == DnsProxy::FlowVerdict::Allow);
                           });
      return;
    }
  }
}

void Forwarding::install_pair(nox::DatapathId dpid,
                              const net::ParsedPacket& packet,
                              std::uint16_t in_port, std::uint32_t buffer_id,
                              bool allowed) {
  const auto& ip = *packet.ip;
  ofp::Match fwd = ofp::Match::from_packet(packet, in_port);

  if (!allowed) {
    metrics_.flows_denied.inc();
    ofp::FlowMod drop;
    drop.match = fwd;
    drop.command = ofp::FlowModCommand::Add;
    drop.idle_timeout = config_.deny_idle_timeout;
    drop.priority = 0x9000;
    drop.buffer_id = buffer_id;  // consumes the buffered packet (dropped)
    // Output to the never-populated OFPP_MAX port: semantically a drop, but
    // (unlike an empty action list) deletable via the out_port filter when a
    // policy change revokes the forwarding band.
    drop.actions = {ofp::ActionOutput{ofp::port_no(ofp::Port::Max), 0}};
    controller().send_flow_mod(dpid, drop);
    return;
  }

  const NextHop hop = next_hop_for(dpid, ip.dst);
  if (!hop.known) {
    metrics_.flows_denied.inc();
    return;
  }

  // Rate limiting: if the home device on one end of a direction carries a
  // bandwidth cap, egress goes through a per-device policing queue instead
  // of a plain output. The queue id is derived from the device address so
  // all of the device's flows share one bucket per egress port.
  auto egress_action = [&](std::uint16_t egress_port,
                           Ipv4Address device_ip) -> ofp::Action {
    if (config_.configure_queue) {
      if (const DeviceRecord* rec = registry_.find_by_ip(dpid, device_ip)) {
        const auto restriction = policy_.restriction_for(dpid, rec->mac);
        if (restriction.rate_limit_bps > 0) {
          const std::uint32_t queue_id = device_ip.value() & 0xffff;
          config_.configure_queue(dpid, egress_port, queue_id,
                                  restriction.rate_limit_bps);
          metrics_.rate_limited_flows.inc();
          return ofp::ActionEnqueue{egress_port, queue_id};
        }
      }
    }
    return ofp::ActionOutput{egress_port, 0};
  };

  // The device whose cap governs an egress: traffic leaving on the uplink is
  // the sender's upload; traffic leaving on a device port is that device's
  // download.
  auto capped_device = [&](std::uint16_t egress_port, Ipv4Address sender,
                           Ipv4Address receiver) {
    return egress_port == config_.uplink_port ? sender : receiver;
  };

  // Forward direction: the triggering packet's exact match.
  ofp::FlowMod mod;
  mod.match = fwd;
  mod.command = ofp::FlowModCommand::Add;
  mod.idle_timeout = config_.flow_idle_timeout;
  mod.priority = 0x8000;
  mod.flags = ofp::FlowModFlags::kSendFlowRem;
  mod.buffer_id = buffer_id;
  mod.actions = {ofp::ActionSetDlSrc{config_.router_mac},
                 ofp::ActionSetDlDst{hop.mac},
                 egress_action(hop.port, capped_device(hop.port, ip.src, ip.dst))};
  controller().send_flow_mod(dpid, mod);
  metrics_.flows_installed.inc();

  // Reverse direction (pre-installed so the response doesn't round-trip
  // through the controller).
  const NextHop back = next_hop_for(dpid, ip.src);
  if (back.known) {
    ofp::Match rev = ofp::Match::any();
    rev.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4))
        .with_nw_proto(ip.protocol)
        .with_nw_src(ip.dst)
        .with_nw_dst(ip.src);
    if (packet.udp) {
      rev.with_tp_src(packet.udp->dst_port).with_tp_dst(packet.udp->src_port);
    } else if (packet.tcp) {
      rev.with_tp_src(packet.tcp->dst_port).with_tp_dst(packet.tcp->src_port);
    }
    ofp::FlowMod rmod;
    rmod.match = rev;
    rmod.command = ofp::FlowModCommand::Add;
    rmod.idle_timeout = config_.flow_idle_timeout;
    rmod.priority = 0x8000;
    rmod.flags = ofp::FlowModFlags::kSendFlowRem;
    rmod.actions = {
        ofp::ActionSetDlSrc{config_.router_mac},
        ofp::ActionSetDlDst{back.mac},
        egress_action(back.port, capped_device(back.port, ip.dst, ip.src))};
    controller().send_flow_mod(dpid, rmod);
    metrics_.flows_installed.inc();
  }
}

void Forwarding::revoke_all_flows() {
  for (const auto dpid : datapaths_) {
    ofp::Match ipv4 = ofp::Match::any();
    ipv4.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4));
    // Delete only the mid-priority forwarding band; the 0xfffd+ service
    // rules (DHCP/DNS/ARP interception) must survive. OF1.0 DELETE has no
    // priority filter, so delete by output-port instead: every forwarding
    // rule outputs to a physical port, service rules output to CONTROLLER.
    for (std::uint16_t port = 1; port <= 64; ++port) {
      ofp::FlowMod del;
      del.match = ipv4;
      del.command = ofp::FlowModCommand::Delete;
      del.out_port = port;
      controller().send_flow_mod(dpid, del);
    }
    // And the deny band (drop rules output to the OFPP_MAX null port).
    ofp::FlowMod del_drops;
    del_drops.match = ipv4;
    del_drops.command = ofp::FlowModCommand::Delete;
    del_drops.out_port = ofp::port_no(ofp::Port::Max);
    controller().send_flow_mod(dpid, del_drops);
  }
}

void Forwarding::revoke_device_flows(nox::DatapathId dpid, Ipv4Address ip) {
  ofp::Match as_src = ofp::Match::any();
  as_src.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4))
      .with_nw_src(ip);
  ofp::Match as_dst = ofp::Match::any();
  as_dst.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4))
      .with_nw_dst(ip);
  for (const auto& m : {as_src, as_dst}) {
    ofp::FlowMod del;
    del.match = m;
    del.command = ofp::FlowModCommand::Delete;
    controller().send_flow_mod(dpid, del);
  }
}

}  // namespace hw::homework
