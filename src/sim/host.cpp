#include "sim/host.hpp"

#include "util/logging.hpp"

namespace hw::sim {
namespace {

constexpr std::string_view kLog = "host";

/// Generated payloads are filler bytes. One shared buffer serves every size
/// a datagram can carry, so a send copies no payload of its own.
std::span<const std::uint8_t> filler_payload(std::size_t size) {
  static const Bytes filler(0xffff, 0xab);
  return std::span(filler).first(std::min(size, filler.size()));
}

}  // namespace

const char* to_string(DhcpClientState s) {
  switch (s) {
    case DhcpClientState::Init: return "INIT";
    case DhcpClientState::Selecting: return "SELECTING";
    case DhcpClientState::Requesting: return "REQUESTING";
    case DhcpClientState::Bound: return "BOUND";
    case DhcpClientState::Renewing: return "RENEWING";
  }
  return "?";
}

Host::Host(EventLoop& loop, Config config, Rng& rng)
    : loop_(loop), config_(std::move(config)), rng_(rng) {
  if (config_.hostname.empty()) config_.hostname = config_.name;
  dns_port_ = static_cast<std::uint16_t>(49152 + rng_.uniform(16000));
}

void Host::send_frame(Bytes frame) {
  if (uplink_ == nullptr) return;
  metrics_.tx_frames.inc();
  metrics_.tx_bytes.inc(frame.size());
  uplink_->send(std::move(frame));
}

void Host::deliver(const Bytes& frame) {
  metrics_.rx_frames.inc();
  metrics_.rx_bytes.inc(frame.size());

  auto parsed = net::ParsedPacket::parse(frame);
  if (!parsed) return;  // malformed frames are dropped silently, as NICs do
  const auto& p = parsed.value();

  // Accept only frames addressed to us, broadcast or multicast.
  if (p.eth.dst != config_.mac && !p.eth.dst.is_broadcast() &&
      !p.eth.dst.is_multicast()) {
    return;
  }

  if (p.arp) {
    handle_arp(*p.arp);
    return;
  }
  if (!p.ip) return;

  if (p.is_dhcp()) {
    handle_dhcp(p);
    return;
  }
  if (p.udp) {
    if (p.udp->src_port == net::kDnsPort && dns_pending_.count(p.udp->dst_port)) {
      handle_dns_response(p);
      return;
    }
    auto it = udp_handlers_.find(p.udp->dst_port);
    if (it != udp_handlers_.end()) it->second(p);
    return;
  }
  if (p.icmp) {
    if (p.icmp->type == net::IcmpType::EchoRequest && ip_ && p.ip->dst == *ip_) {
      send_frame(net::build_icmp_echo(config_.mac, p.eth.src, *ip_, p.ip->src,
                                      net::IcmpType::EchoReply, p.icmp->identifier,
                                      p.icmp->sequence));
    } else if (p.icmp->type == net::IcmpType::EchoReply && on_echo_reply_) {
      on_echo_reply_(p.ip->src, p.icmp->sequence);
    }
  }
}

void Host::handle_arp(const net::ArpMessage& arp) {
  // Learn the sender mapping opportunistically.
  if (!arp.sender_ip.is_zero()) arp_cache_[arp.sender_ip] = arp.sender_mac;

  if (arp.op == net::ArpOp::Request && ip_ && arp.target_ip == *ip_) {
    net::ArpMessage reply;
    reply.op = net::ArpOp::Reply;
    reply.sender_mac = config_.mac;
    reply.sender_ip = *ip_;
    reply.target_mac = arp.sender_mac;
    reply.target_ip = arp.sender_ip;
    send_frame(net::build_arp(reply));
  }

  // Flush sends that were waiting for this resolution.
  for (auto it = pending_sends_.begin(); it != pending_sends_.end();) {
    auto cache_it = arp_cache_.find(it->next_hop);
    if (cache_it != arp_cache_.end()) {
      send_frame(it->builder(cache_it->second));
      it = pending_sends_.erase(it);
    } else {
      ++it;
    }
  }
}

// -- DHCP client --------------------------------------------------------------

void Host::start_dhcp() {
  loop_.cancel(dhcp_timer_);
  dhcp_state_ = DhcpClientState::Init;
  ip_.reset();
  gateway_.reset();
  dns_server_.reset();
  dhcp_server_.reset();
  arp_cache_.clear();
  dhcp_retries_ = 0;
  send_discover();
}

void Host::send_discover() {
  dhcp_state_ = DhcpClientState::Selecting;
  dhcp_xid_ = static_cast<std::uint32_t>(rng_.next());
  auto msg = net::DhcpMessage::discover(dhcp_xid_, config_.mac, config_.hostname);
  send_frame(net::build_dhcp_frame(config_.mac, MacAddress::broadcast(),
                                   Ipv4Address::any(), Ipv4Address::broadcast(),
                                   /*from_client=*/true, msg.serialize()));
  dhcp_timer_ = loop_.schedule(config_.dhcp_retry_interval, [this] { dhcp_timeout(); });
}

void Host::send_request(Ipv4Address requested, Ipv4Address server) {
  dhcp_state_ = DhcpClientState::Requesting;
  auto msg = net::DhcpMessage::request(dhcp_xid_, config_.mac, requested, server,
                                       config_.hostname);
  send_frame(net::build_dhcp_frame(config_.mac, MacAddress::broadcast(),
                                   Ipv4Address::any(), Ipv4Address::broadcast(),
                                   /*from_client=*/true, msg.serialize()));
  dhcp_timer_ = loop_.schedule(config_.dhcp_retry_interval, [this] { dhcp_timeout(); });
}

void Host::dhcp_timeout() {
  if (dhcp_state_ == DhcpClientState::Bound) return;
  if (++dhcp_retries_ > config_.dhcp_max_retries) {
    HW_LOG_WARN(kLog, "%s: DHCP gave up after %d retries", config_.name.c_str(),
                dhcp_retries_ - 1);
    dhcp_state_ = DhcpClientState::Init;
    return;
  }
  // Renewal timeouts fall back to a fresh DISCOVER, as clients do.
  send_discover();
}

void Host::handle_dhcp(const net::ParsedPacket& p) {
  auto parsed = net::DhcpMessage::parse(p.l4_payload);
  if (!parsed) return;
  const auto& m = parsed.value();
  if (m.is_request || m.chaddr != config_.mac || m.xid != dhcp_xid_) return;

  switch (m.message_type) {
    case net::DhcpMessageType::Offer: {
      if (dhcp_state_ != DhcpClientState::Selecting) return;
      loop_.cancel(dhcp_timer_);
      const Ipv4Address server = m.server_identifier.value_or(m.siaddr);
      send_request(m.yiaddr, server);
      break;
    }
    case net::DhcpMessageType::Ack: {
      if (dhcp_state_ != DhcpClientState::Requesting &&
          dhcp_state_ != DhcpClientState::Renewing) {
        return;
      }
      loop_.cancel(dhcp_timer_);
      ip_ = m.yiaddr;
      gateway_ = m.router;
      if (!m.dns_servers.empty()) dns_server_ = m.dns_servers.front();
      dhcp_server_ = m.server_identifier;
      lease_secs_ = m.lease_time_secs.value_or(3600);
      dhcp_state_ = DhcpClientState::Bound;
      dhcp_retries_ = 0;
      metrics_.dhcp_acks.inc();
      HW_LOG_INFO(kLog, "%s: bound %s", config_.name.c_str(),
                  ip_->to_string().c_str());
      schedule_renewal();
      if (on_bound_) on_bound_();
      break;
    }
    case net::DhcpMessageType::Nak: {
      loop_.cancel(dhcp_timer_);
      metrics_.dhcp_naks.inc();
      dhcp_state_ = DhcpClientState::Init;
      ip_.reset();
      if (on_nak_) on_nak_();
      break;
    }
    default:
      break;
  }
}

void Host::adopt_lease(Ipv4Address ip, Ipv4Address gateway, Ipv4Address dns,
                       Ipv4Address server, std::uint32_t lease_secs) {
  ip_ = ip;
  gateway_ = gateway;
  dns_server_ = dns;
  dhcp_server_ = server;
  lease_secs_ = lease_secs;
  dhcp_state_ = DhcpClientState::Bound;
  dhcp_retries_ = 0;
  schedule_renewal();
}

void Host::schedule_renewal() {
  // T1 = lease/2 per RFC 2131.
  const Duration t1 = static_cast<Duration>(lease_secs_) * kSecond / 2;
  dhcp_timer_ = loop_.schedule(t1, [this] {
    if (dhcp_state_ != DhcpClientState::Bound || !ip_ || !dhcp_server_) return;
    dhcp_state_ = DhcpClientState::Renewing;
    dhcp_xid_ = static_cast<std::uint32_t>(rng_.next());
    auto msg = net::DhcpMessage::request(dhcp_xid_, config_.mac, *ip_,
                                         *dhcp_server_, config_.hostname);
    msg.ciaddr = *ip_;
    send_frame(net::build_dhcp_frame(config_.mac, MacAddress::broadcast(),
                                     *ip_, Ipv4Address::broadcast(),
                                     /*from_client=*/true, msg.serialize()));
    dhcp_timer_ =
        loop_.schedule(config_.dhcp_retry_interval, [this] { dhcp_timeout(); });
  });
}

void Host::release_dhcp() {
  if (!ip_ || !dhcp_server_) return;
  loop_.cancel(dhcp_timer_);
  auto msg = net::DhcpMessage::release(static_cast<std::uint32_t>(rng_.next()),
                                       config_.mac, *ip_, *dhcp_server_);
  send_frame(net::build_dhcp_frame(config_.mac, MacAddress::broadcast(), *ip_,
                                   Ipv4Address::broadcast(),
                                   /*from_client=*/true, msg.serialize()));
  dhcp_state_ = DhcpClientState::Init;
  ip_.reset();
  gateway_.reset();
}

// -- Transmission -------------------------------------------------------------

Ipv4Address Host::next_hop(Ipv4Address dst) const {
  // The Homework DHCP module allocates addresses so every destination is
  // off-link: the next hop is always the router (paper §2, avoiding direct
  // Ethernet-layer communication between devices).
  return (gateway_ && dst != *gateway_) ? *gateway_ : dst;
}

void Host::transmit_after_arp(Ipv4Address dst,
                              std::function<Bytes(MacAddress)> builder) {
  const Ipv4Address hop = next_hop(dst);
  pending_sends_.push_back(PendingSend{hop, std::move(builder)});
  // Issue an ARP request for the next hop.
  net::ArpMessage req;
  req.op = net::ArpOp::Request;
  req.sender_mac = config_.mac;
  req.sender_ip = ip_.value_or(Ipv4Address::any());
  req.target_mac = MacAddress::zero();
  req.target_ip = hop;
  send_frame(net::build_arp(req));
}

template <typename Build>
void Host::transmit_via_gateway(Ipv4Address dst, Build build) {
  if (auto it = arp_cache_.find(next_hop(dst)); it != arp_cache_.end()) {
    send_frame(build(it->second));
    return;
  }
  transmit_after_arp(dst, std::move(build));
}

bool Host::send_udp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                    std::size_t payload_size) {
  if (!ip_ || uplink_ == nullptr) return false;
  const Ipv4Address src = *ip_;
  const MacAddress src_mac = config_.mac;
  transmit_via_gateway(dst, [=](MacAddress dst_mac) {
    return net::build_udp(src_mac, dst_mac, src, dst, sport, dport,
                          filler_payload(payload_size));
  });
  return true;
}

bool Host::send_tcp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                    std::uint8_t flags, std::size_t payload_size) {
  if (!ip_ || uplink_ == nullptr) return false;
  const Ipv4Address src = *ip_;
  const MacAddress src_mac = config_.mac;
  net::TcpHeader tcp;
  tcp.src_port = sport;
  tcp.dst_port = dport;
  tcp.flags = flags;
  transmit_via_gateway(dst, [=](MacAddress dst_mac) {
    return net::build_tcp(src_mac, dst_mac, src, dst, tcp,
                          filler_payload(payload_size));
  });
  return true;
}

bool Host::ping(Ipv4Address dst, std::uint16_t seq) {
  if (!ip_ || uplink_ == nullptr) return false;
  const Ipv4Address src = *ip_;
  const MacAddress src_mac = config_.mac;
  transmit_via_gateway(dst, [=](MacAddress dst_mac) {
    return net::build_icmp_echo(src_mac, dst_mac, src, dst,
                                net::IcmpType::EchoRequest, 1, seq);
  });
  return true;
}

void Host::on_udp(std::uint16_t port,
                  std::function<void(const net::ParsedPacket&)> handler) {
  udp_handlers_[port] = std::move(handler);
}

// -- DNS ------------------------------------------------------------------------

void Host::resolve(const std::string& name, ResolveCallback cb) {
  if (!ip_ || !dns_server_) {
    cb(make_error("not bound / no DNS server"), name);
    return;
  }
  const auto id = static_cast<std::uint16_t>(rng_.uniform(65536));
  // One outstanding query per source port keeps matching trivial; allocate a
  // fresh port when the default is busy.
  std::uint16_t port = dns_port_;
  while (dns_pending_.count(port) != 0) ++port;

  auto query = net::DnsMessage::query(id, name);
  const Ipv4Address src = *ip_;
  const Ipv4Address dst = *dns_server_;
  const MacAddress src_mac = config_.mac;
  Bytes payload = query.serialize();
  transmit_via_gateway(dst, [=](MacAddress dst_mac) {
    return net::build_udp(src_mac, dst_mac, src, dst, port, net::kDnsPort,
                          payload);
  });

  PendingQuery pending;
  pending.name = name;
  pending.cb = std::move(cb);
  pending.timeout = loop_.schedule(3 * kSecond, [this, port] {
    auto it = dns_pending_.find(port);
    if (it == dns_pending_.end()) return;
    auto entry = std::move(it->second);
    dns_pending_.erase(it);
    metrics_.dns_failures.inc();
    entry.cb(make_error("DNS timeout"), entry.name);
  });
  dns_pending_.emplace(port, std::move(pending));
}

void Host::handle_dns_response(const net::ParsedPacket& p) {
  auto it = dns_pending_.find(p.udp->dst_port);
  if (it == dns_pending_.end()) return;
  auto msg = net::DnsMessage::parse(p.l4_payload);
  if (!msg) return;
  auto entry = std::move(it->second);
  loop_.cancel(entry.timeout);
  dns_pending_.erase(it);

  const auto& m = msg.value();
  if (m.rcode != net::DnsRcode::NoError) {
    metrics_.dns_failures.inc();
    entry.cb(make_error("DNS rcode " + std::to_string(static_cast<int>(m.rcode))),
             entry.name);
    return;
  }
  for (const auto& rec : m.answers) {
    if (rec.rtype == net::DnsType::A) {
      metrics_.dns_answers.inc();
      entry.cb(rec.address, entry.name);
      return;
    }
  }
  metrics_.dns_failures.inc();
  entry.cb(make_error("DNS: no A record"), entry.name);
}

}  // namespace hw::sim
