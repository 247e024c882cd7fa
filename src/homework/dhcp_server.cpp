#include "homework/dhcp_server.hpp"

#include "net/packet.hpp"
#include "util/logging.hpp"

namespace hw::homework {
namespace {
constexpr std::string_view kLog = "dhcp";
}  // namespace

DhcpServer::DhcpServer(Config config, DeviceRegistry& registry)
    : Component(kName), config_(config), registry_(registry) {}

DhcpServer::~DhcpServer() = default;

void DhcpServer::install(nox::Controller& ctl) {
  Component::install(ctl);
  expiry_timer_ = std::make_unique<sim::PeriodicTimer>(
      ctl.loop(), config_.expiry_sweep, [this] { sweep_expiry(); });
  expiry_timer_->start();
}

void DhcpServer::contribute_flows(nox::DatapathId, nox::FlowIntentSink& sink) {
  // Client→server DHCP traffic comes to the controller, highest priority.
  nox::FlowIntent intent;
  intent.key = "dhcp:intercept";
  intent.match = ofp::Match::any();
  intent.match.with_dl_type(static_cast<std::uint16_t>(net::EtherType::Ipv4))
      .with_nw_proto(static_cast<std::uint8_t>(net::IpProto::Udp))
      .with_tp_src(net::kDhcpClientPort)
      .with_tp_dst(net::kDhcpServerPort);
  intent.actions = ofp::send_to_controller(1024);
  intent.priority = 0xffff;
  sink.add(std::move(intent));
}

nox::Disposition DhcpServer::handle_packet_in(const nox::PacketInEvent& ev) {
  if (!ev.packet.is_dhcp() || !ev.packet.udp ||
      ev.packet.udp->dst_port != net::kDhcpServerPort) {
    return nox::Disposition::Continue;
  }
  auto msg = net::DhcpMessage::parse(ev.packet.l4_payload);
  if (!msg) {
    HW_LOG_WARN(kLog, "bad DHCP payload: %s", msg.error().message.c_str());
    return nox::Disposition::Stop;
  }
  process(ev.dpid, ev.msg.in_port, ev.packet, msg.value());
  return nox::Disposition::Stop;
}

void DhcpServer::process(nox::DatapathId dpid, std::uint16_t in_port,
                         const net::ParsedPacket& packet,
                         const net::DhcpMessage& msg) {
  const Timestamp now = controller().loop().now();
  DeviceRecord* rec = registry_.touch(dpid, msg.chaddr, now, msg.hostname);
  registry_.note_location(dpid, msg.chaddr, in_port);
  (void)packet;

  switch (msg.message_type) {
    case net::DhcpMessageType::Discover: {
      metrics_.discovers.inc();
      if (rec->state == DeviceState::Denied) {
        metrics_.naks.inc();
        send_reply(dpid, in_port,
                   make_reply(msg, net::DhcpMessageType::Nak, Ipv4Address::any()),
                   msg.chaddr);
        return;
      }
      if (rec->state == DeviceState::Pending) {
        // Silent: the device shows up on the control board as "requesting
        // access" and retries until the user decides (Figure 3).
        metrics_.ignored_pending.inc();
        return;
      }
      // A lossy network re-sends DISCOVERs; the sticky allocator hands the
      // same address back, so a retransmit can never double-allocate. Count
      // it so the chaos suite can read the recovery story off telemetry.
      if (allocation(dpid, msg.chaddr)) metrics_.retransmits.inc();
      auto ip = allocate(dpid, msg.chaddr, now);
      if (!ip) {
        metrics_.pool_exhausted.inc();
        HW_LOG_WARN(kLog, "address pool exhausted for %s",
                    msg.chaddr.to_string().c_str());
        return;
      }
      metrics_.offers.inc();
      send_reply(dpid, in_port,
                 make_reply(msg, net::DhcpMessageType::Offer, *ip), msg.chaddr);
      return;
    }

    case net::DhcpMessageType::Request: {
      metrics_.requests.inc();
      if (rec->state != DeviceState::Permitted) {
        metrics_.naks.inc();
        send_reply(dpid, in_port,
                   make_reply(msg, net::DhcpMessageType::Nak, Ipv4Address::any()),
                   msg.chaddr);
        return;
      }
      // The requested address must match our allocation (either from the
      // preceding OFFER or a renewal of the active lease in ciaddr).
      auto allocated = allocation(dpid, msg.chaddr);
      const Ipv4Address wanted =
          msg.requested_ip.value_or(msg.ciaddr);
      if (!allocated || wanted.is_zero() || wanted != *allocated) {
        metrics_.naks.inc();
        send_reply(dpid, in_port,
                   make_reply(msg, net::DhcpMessageType::Nak, Ipv4Address::any()),
                   msg.chaddr);
        return;
      }
      const bool renewal = rec->lease.has_value();
      // A REQUEST that selects an address (rather than renewing via ciaddr)
      // while the lease already exists is a retransmission of the original
      // REQUEST — re-ACK the same lease, never allocate a second address.
      if (renewal && msg.requested_ip && rec->lease->ip == *allocated) {
        metrics_.retransmits.inc();
      }
      Lease lease;
      lease.ip = *allocated;
      lease.granted_at = now;
      lease.expires_at = now + static_cast<Duration>(config_.lease_secs) * kSecond;
      lease.hostname = msg.hostname;
      registry_.record_lease(dpid, msg.chaddr, lease, renewal, now);
      // The ACK claims the offer: the allocation becomes sticky (exempt
      // from the unclaimed-offer hold) for the life of the scope.
      if (auto it = scopes_[dpid].allocations.find(msg.chaddr);
          it != scopes_[dpid].allocations.end()) {
        it->second.offered_at = 0;
      }
      if (allocation_observer_) allocation_observer_(dpid, msg.chaddr, lease.ip);
      metrics_.acks.inc();
      send_reply(dpid, in_port,
                 make_reply(msg, net::DhcpMessageType::Ack, *allocated),
                 msg.chaddr);
      return;
    }

    case net::DhcpMessageType::Release: {
      metrics_.releases.inc();
      registry_.clear_lease(dpid, msg.chaddr, /*expired=*/false, now);
      if (allocation_observer_) allocation_observer_(dpid, msg.chaddr, std::nullopt);
      return;
    }

    case net::DhcpMessageType::Decline: {
      metrics_.declines.inc();
      // The client saw an address conflict; blacklist the address.
      Scope& scope = scopes_[dpid];
      if (auto it = scope.allocations.find(msg.chaddr);
          it != scope.allocations.end()) {
        scope.declined.insert(it->second.ip);
        scope.in_use.erase(it->second.ip);
        scope.allocations.erase(it);
      }
      registry_.clear_lease(dpid, msg.chaddr, /*expired=*/false, now);
      if (allocation_observer_) allocation_observer_(dpid, msg.chaddr, std::nullopt);
      return;
    }

    default:
      return;  // Inform etc. unsupported
  }
}

net::DhcpMessage DhcpServer::make_reply(const net::DhcpMessage& req,
                                        net::DhcpMessageType type,
                                        Ipv4Address yiaddr) const {
  net::DhcpMessage reply;
  reply.is_request = false;
  reply.xid = req.xid;
  reply.chaddr = req.chaddr;
  reply.message_type = type;
  reply.server_identifier = config_.server_ip;
  if (type == net::DhcpMessageType::Offer || type == net::DhcpMessageType::Ack) {
    reply.yiaddr = yiaddr;
    reply.siaddr = config_.server_ip;
    reply.lease_time_secs = config_.lease_secs;
    // Isolation: a /32 mask leaves the client no on-link destinations, so
    // everything — including "local" peers — is sent to the router.
    reply.subnet_mask = config_.isolate ? Ipv4Address{0xffffffffu}
                                        : config_.subnet.mask();
    reply.router = config_.server_ip;
    reply.dns_servers = {config_.server_ip};
  }
  return reply;
}

void DhcpServer::send_reply(nox::DatapathId dpid, std::uint16_t port,
                            const net::DhcpMessage& reply, MacAddress client_mac) {
  const Bytes payload = reply.serialize();
  const Bytes frame = net::build_dhcp_frame(
      config_.router_mac, client_mac, config_.server_ip,
      Ipv4Address::broadcast(), /*from_client=*/false, payload);
  ofp::PacketOut po;
  po.in_port = ofp::port_no(ofp::Port::None);
  po.actions = ofp::output_to(port);
  po.data = frame;
  controller().send_packet_out(dpid, po);
}

std::optional<Ipv4Address> DhcpServer::allocation(nox::DatapathId dpid,
                                                  MacAddress mac) const {
  auto scope_it = scopes_.find(dpid);
  if (scope_it == scopes_.end()) return std::nullopt;
  auto it = scope_it->second.allocations.find(mac);
  return it == scope_it->second.allocations.end()
             ? std::nullopt
             : std::optional<Ipv4Address>(it->second.ip);
}

std::optional<Ipv4Address> DhcpServer::allocate(nox::DatapathId dpid,
                                                MacAddress mac, Timestamp now) {
  if (auto existing = allocation(dpid, mac)) return existing;
  Scope& scope = scopes_[dpid];
  // Linear scan of the pool for a free address, with set-backed occupancy
  // checks: a DISCOVER flood against an exhausted pool walks the pool once
  // per message but never the allocation map.
  for (std::uint32_t a = config_.pool_start.value(); a <= config_.pool_end.value();
       ++a) {
    const Ipv4Address candidate{a};
    if (scope.declined.count(candidate) != 0) continue;
    if (scope.in_use.count(candidate) != 0) continue;
    scope.allocations[mac] = {candidate, now};
    scope.in_use.insert(candidate);
    return candidate;
  }
  return std::nullopt;
}

void DhcpServer::sweep_expiry() {
  const Timestamp now = controller().loop().now();
  for (const DeviceRecord* rec : registry_.all()) {
    if (rec->lease && rec->lease->expires_at <= now) {
      metrics_.expired.inc();
      const auto dpid = rec->dpid;
      const auto mac = rec->mac;
      registry_.clear_lease(dpid, mac, /*expired=*/true, now);
      if (allocation_observer_) allocation_observer_(dpid, mac, std::nullopt);
    }
  }
  // Reclaim offers nobody ever claimed: a spoofed-MAC DISCOVER flood can
  // drain the pool, but each phantom allocation only survives offer_hold.
  // ACKed allocations carry offered_at == 0 and stay sticky forever.
  for (auto& [dpid, scope] : scopes_) {
    for (auto it = scope.allocations.begin(); it != scope.allocations.end();) {
      if (it->second.offered_at != 0 &&
          it->second.offered_at + config_.offer_hold <= now) {
        metrics_.offers_expired.inc();
        scope.in_use.erase(it->second.ip);
        it = scope.allocations.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool DhcpServer::adopt_allocation(nox::DatapathId dpid, MacAddress mac,
                                  Ipv4Address ip) {
  Scope& scope = scopes_[dpid];
  auto it = scope.allocations.find(mac);
  if (it != scope.allocations.end() && it->second.ip == ip) return false;
  if (it != scope.allocations.end()) scope.in_use.erase(it->second.ip);
  scope.allocations[mac] = {ip, /*offered_at=*/0};
  scope.in_use.insert(ip);
  scope.declined.erase(ip);
  return true;
}

namespace {
constexpr std::uint32_t kDhcpTag = snapshot::tag("DHCP");
/// Leads every DHCP chunk, ahead of its version.
constexpr std::uint32_t kDhcpVersionSentinel = 0xFFFFFFFFu;
constexpr std::uint32_t kDhcpVersion = 3;
}  // namespace

void DhcpServer::save(snapshot::Writer& w) const {
  ByteWriter& c = w.begin_chunk(kDhcpTag);
  c.u32(kDhcpVersionSentinel);
  c.u32(kDhcpVersion);
  c.u32(static_cast<std::uint32_t>(scopes_.size()));
  for (const auto& [dpid, scope] : scopes_) {
    c.u64(dpid);
    c.u32(static_cast<std::uint32_t>(scope.allocations.size()));
    for (const auto& [mac, binding] : scope.allocations) {
      snapshot::put_mac(c, mac);
      snapshot::put_ip(c, binding.ip);
      c.u64(static_cast<std::uint64_t>(binding.offered_at));
    }
    c.u32(static_cast<std::uint32_t>(scope.declined.size()));
    for (const Ipv4Address ip : scope.declined) snapshot::put_ip(c, ip);
  }
  w.end_chunk();
}

Status DhcpServer::restore(const snapshot::Reader& r) {
  const Bytes* chunk = r.find(kDhcpTag);
  if (chunk == nullptr) return Status::success();
  ByteReader br(*chunk);
  auto sentinel = br.u32();
  auto version = br.u32();
  auto nscopes = br.u32();
  if (!sentinel || !version || !nscopes) {
    return make_error("dhcp snapshot: truncated header");
  }
  if (sentinel.value() != kDhcpVersionSentinel ||
      version.value() != kDhcpVersion) {
    return make_error("dhcp snapshot: unsupported version");
  }
  std::map<nox::DatapathId, Scope> scopes;
  for (std::uint32_t s = 0; s < nscopes.value(); ++s) {
    auto dpid = br.u64();
    auto nalloc = br.u32();
    if (!dpid || !nalloc) return make_error("dhcp snapshot: truncated scope");
    Scope scope;
    for (std::uint32_t i = 0; i < nalloc.value(); ++i) {
      auto mac = snapshot::get_mac(br);
      auto ip = snapshot::get_ip(br);
      if (!mac || !ip) return make_error("dhcp snapshot: truncated allocation");
      auto offered = br.u64();
      if (!offered) return make_error("dhcp snapshot: truncated offer time");
      const Binding binding{ip.value(),
                            static_cast<Timestamp>(offered.value())};
      scope.in_use.insert(binding.ip);
      scope.allocations.emplace(mac.value(), binding);
    }
    auto ndeclined = br.u32();
    if (!ndeclined) return ndeclined.error();
    for (std::uint32_t i = 0; i < ndeclined.value(); ++i) {
      auto ip = snapshot::get_ip(br);
      if (!ip) return make_error("dhcp snapshot: truncated declined set");
      scope.declined.insert(ip.value());
    }
    scopes.emplace(dpid.value(), std::move(scope));
  }
  scopes_ = std::move(scopes);
  return Status::success();
}

}  // namespace hw::homework
