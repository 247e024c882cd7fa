#include "openflow/datapath.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "net/checksum.hpp"
#include "net/packet.hpp"
#include "util/logging.hpp"

namespace hw::ofp {
namespace {

constexpr std::string_view kLog = "datapath";
/// Capacity the reused encode buffer keeps between messages: room for a
/// packet-in, an echo or a flow-removed, not for a features reply's port
/// list or a flow-stats fragment.
constexpr std::size_t kKeepTxBytes = 4096;
/// Capacity the kept rewrite buffer keeps between frames: any Ethernet
/// frame, not a jumbo one.
constexpr std::size_t kKeepRewriteBytes = 4096;

/// Where set-field actions write, found from the frame's one parse. A frame
/// that does not parse takes no rewrites; a layer it lacks takes none of
/// that layer's.
struct FieldOffsets {
  bool parsed = false;
  std::size_t ip = 0;  // IPv4 header; 0 when the frame has none
  std::size_t l4 = 0;  // UDP/TCP header; 0 when the frame has neither
};

FieldOffsets field_offsets(const net::ParsedPacket& p, const Bytes& frame) {
  FieldOffsets at{.parsed = true};
  if (!p.ip) return at;
  at.ip = net::kEthernetHeaderSize;
  if (p.udp || p.tcp) at.l4 = at.ip + (frame[at.ip] & 0x0fu) * 4u;  // IHL
  return at;
}

/// Writes an IPv4 address field at `field` and adjusts the header checksum
/// at `ip + 10` for it (RFC 1624), leaving every other byte as it was.
void patch_nw(Bytes& frame, std::size_t ip, std::size_t field, Ipv4Address addr) {
  std::uint8_t* f = frame.data() + field;
  const std::uint32_t old_value = load_be32(f);
  store_be32(f, addr.value());
  std::uint8_t* sum = frame.data() + ip + 10;
  store_be16(sum, net::checksum_adjust(load_be16(sum), old_value, addr.value()));
}

}  // namespace

Datapath::Datapath(sim::EventLoop& loop, Config config,
                   telemetry::MetricRegistry& metrics)
    : loop_(loop),
      config_(config),
      table_(config.table_capacity, metrics),
      microflow_(config.microflow_capacity),
      metrics_(metrics) {
  buffers_.reserve(config_.n_buffers);
  expiry_timer_ = std::make_unique<sim::PeriodicTimer>(
      loop_, config_.expiry_interval, [this] { sweep_timeouts(); });
  expiry_timer_->start();
}

Datapath::~Datapath() = default;

void Datapath::connect(ChannelEndpoint& channel) {
  channel_ = &channel;
  channel_->on_receive([this](const Bytes& encoded) {
    handle_channel_message(encoded);
  });
  last_channel_rx_ = loop_.now();
  send_to_controller(Hello{}, next_xid_++);
}

void Datapath::restart() {
  metrics_.restarts.inc();
  table_.clear();
  microflow_.clear();
  buffers_.clear();
  mac_table_.clear();
  next_buffer_id_ = 1;
  if (fail_safe_) {
    fail_safe_ = false;
    metrics_.fail_safe.set(0);
  }
  last_channel_rx_ = loop_.now();
  // Fresh HELLO: the controller treats a renewed handshake on an identified
  // connection as a restart and re-installs its flows.
  if (channel_ != nullptr) send_to_controller(Hello{}, next_xid_++);
}

void Datapath::add_port(std::uint16_t port, std::string name, MacAddress hw_addr,
                        sim::FrameSink* out) {
  if (auto existing = ports_.find(port); existing != ports_.end()) {
    existing->second.name = std::move(name);
    existing->second.hw_addr = hw_addr;
    existing->second.out = out;
    return;
  }
  PortState state;
  state.name = std::move(name);
  state.hw_addr = hw_addr;
  state.out = out;
  state.ingress_adapter = std::make_unique<sim::CallbackSink>(
      [this, port](const Bytes& frame) { receive_frame(port, frame); });
  auto [it, inserted] = ports_.emplace(port, std::move(state));
  (void)inserted;
  if (channel_ != nullptr) {
    PortStatus status;
    status.reason = PortReason::Add;
    status.desc = PhyPort{port, it->second.hw_addr, it->second.name, 0, 0, 0};
    send_to_controller(status, next_xid_++);
  }
}

void Datapath::remove_port(std::uint16_t port) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  PhyPort desc{port, it->second.hw_addr, it->second.name, 0, 0, 0};
  ports_.erase(it);
  // Purge learned MACs on that port.
  for (auto mit = mac_table_.begin(); mit != mac_table_.end();) {
    if (mit->second == port) {
      mit = mac_table_.erase(mit);
    } else {
      ++mit;
    }
  }
  if (channel_ != nullptr) {
    PortStatus status;
    status.reason = PortReason::Delete;
    status.desc = desc;
    send_to_controller(status, next_xid_++);
  }
}

sim::FrameSink* Datapath::ingress(std::uint16_t port) {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : it->second.ingress_adapter.get();
}

const PortCounters* Datapath::port_counters(std::uint16_t port) const {
  auto it = ports_.find(port);
  return it == ports_.end() ? nullptr : &it->second.counters;
}

std::vector<PhyPort> Datapath::port_descriptions() const {
  std::vector<PhyPort> out;
  out.reserve(ports_.size());
  for (const auto& [no, state] : ports_) {
    out.push_back(PhyPort{no, state.hw_addr, state.name, 0, 0, 0});
  }
  return out;
}

void Datapath::receive_frame(std::uint16_t in_port, const Bytes& frame) {
  auto it = ports_.find(in_port);
  if (it == ports_.end()) return;
  ++it->second.counters.rx_packets;
  it->second.counters.rx_bytes += frame.size();
  process_frame(in_port, frame);
}

void Datapath::process_frame(std::uint16_t in_port, const Bytes& frame) {
  auto parsed = net::ParsedPacket::parse(frame);
  if (!parsed) {
    auto it = ports_.find(in_port);
    if (it != ports_.end()) ++it->second.counters.rx_dropped;
    return;
  }
  // Opportunistic L2 learning keeps NORMAL working regardless of rules.
  if (!parsed.value().eth.src.is_multicast()) {
    mac_table_[parsed.value().eth.src] = in_port;
  }

  // Tier 1: the exact-match microflow cache. A hit skips the classifier
  // entirely; only the first packet of a flow (or the first after a table
  // mutation) pays the tuple-space search.
  const FlowKey key = FlowKey::from_packet(parsed.value(), in_port);
  const std::uint64_t generation = table_.generation();
  const MicroflowCache::Probe cached = microflow_.probe(key, generation);
  if (cached.flushed) metrics_.microflow_invalidations.inc();
  FlowEntry* entry = cached.entry;
  if (entry != nullptr) {
    metrics_.microflow_hits.inc();
    table_.record_hit(*entry, loop_.now(), frame.size());
  } else {
    metrics_.microflow_misses.inc();
    entry = table_.lookup(key, loop_.now(), frame.size());
    if (entry != nullptr) microflow_.insert(key, entry, generation);
  }
  if (entry == nullptr) {
    send_packet_in(in_port, frame, PacketInReason::NoMatch,
                   config_.miss_send_len);
    return;
  }
  apply_actions(entry->actions, in_port, frame, &parsed.value());
}

void Datapath::apply_actions(const ActionList& actions, std::uint16_t in_port,
                             const Bytes& frame, const net::ParsedPacket* parsed) {
  if (actions.empty()) return;  // drop

  // Copy on first write: outputs forward the caller's bytes until a
  // set-field action changes them. That action copies the frame into the
  // kept rewrite buffer; it and every later one patch header fields in
  // place. The buffer is moved out until the call returns, so an output
  // that re-enters the datapath finds it empty and cannot clobber it.
  Bytes copy;
  const Bytes* current = &frame;
  std::optional<FieldOffsets> offsets;
  const auto at = [&]() -> const FieldOffsets& {
    if (!offsets) {
      if (parsed != nullptr) {
        offsets = field_offsets(*parsed, frame);
      } else {
        auto p = net::ParsedPacket::parse(frame);
        offsets = p ? field_offsets(p.value(), frame) : FieldOffsets{};
      }
    }
    return *offsets;
  };
  const auto writable = [&]() -> Bytes& {
    if (current != &copy) {
      copy = std::move(rewrite_);
      copy.assign(frame.begin(), frame.end());
      current = &copy;
    }
    return copy;
  };

  for (const auto& action : actions) {
    std::visit(
        [&](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          if constexpr (std::is_same_v<T, ActionOutput>) {
            output(a.port, in_port, *current, a.max_len);
          } else if constexpr (std::is_same_v<T, ActionSetDlSrc>) {
            if (at().parsed) std::copy_n(a.mac.octets().data(), 6, writable().data() + 6);
          } else if constexpr (std::is_same_v<T, ActionSetDlDst>) {
            if (at().parsed) std::copy_n(a.mac.octets().data(), 6, writable().data());
          } else if constexpr (std::is_same_v<T, ActionSetNwSrc>) {
            if (at().ip != 0) patch_nw(writable(), at().ip, at().ip + 12, a.addr);
          } else if constexpr (std::is_same_v<T, ActionSetNwDst>) {
            if (at().ip != 0) patch_nw(writable(), at().ip, at().ip + 16, a.addr);
          } else if constexpr (std::is_same_v<T, ActionSetTpSrc>) {
            if (at().l4 != 0) store_be16(writable().data() + at().l4, a.port);
          } else if constexpr (std::is_same_v<T, ActionSetTpDst>) {
            if (at().l4 != 0) store_be16(writable().data() + at().l4 + 2, a.port);
          } else if constexpr (std::is_same_v<T, ActionEnqueue>) {
            const Bytes& out = *current;
            auto it = queues_.find({a.port, a.queue_id});
            if (it == queues_.end()) {
              // Unconfigured queue degrades to a plain output (OVS behaviour).
              output(a.port, in_port, out);
            } else if (it->second.bucket.try_consume(loop_.now(), out.size())) {
              ++it->second.counters.tx_packets;
              it->second.counters.tx_bytes += out.size();
              output(a.port, in_port, out);
            } else {
              ++it->second.counters.dropped;  // policed
            }
          }
        },
        action);
  }
  if (current == &copy) {
    // A jumbo rewrite must not pin its size.
    release_if_oversized(copy, kKeepRewriteBytes);
    rewrite_ = std::move(copy);
  }
}

void Datapath::output(std::uint16_t out_port, std::uint16_t in_port,
                      const Bytes& frame, std::uint16_t controller_max_len) {
  switch (out_port) {
    case port_no(Port::Controller):
      send_packet_in(in_port, frame, PacketInReason::Action, controller_max_len);
      return;
    case port_no(Port::Flood):
      flood(in_port, frame, /*include_in_port=*/false);
      return;
    case port_no(Port::All):
      flood(in_port, frame, /*include_in_port=*/false);
      return;
    case port_no(Port::InPort):
      out_port = in_port;
      break;
    case port_no(Port::Normal):
      do_normal(in_port, frame);
      return;
    case port_no(Port::Local):
    case port_no(Port::Table):
    case port_no(Port::None):
      return;  // LOCAL handled by modules via controller in this platform
    default:
      break;
  }
  auto it = ports_.find(out_port);
  if (it == ports_.end() || it->second.out == nullptr) return;
  ++it->second.counters.tx_packets;
  it->second.counters.tx_bytes += frame.size();
  it->second.out->deliver(frame);
}

void Datapath::flood(std::uint16_t in_port, const Bytes& frame,
                     bool include_in_port) {
  for (auto& [no, state] : ports_) {
    if (!include_in_port && no == in_port) continue;
    if (state.out == nullptr) continue;
    ++state.counters.tx_packets;
    state.counters.tx_bytes += frame.size();
    state.out->deliver(frame);
  }
}

void Datapath::do_normal(std::uint16_t in_port, const Bytes& frame) {
  // L2 forwarding needs only the destination MAC, the frame's first octets.
  if (frame.size() < net::kEthernetHeaderSize) return;
  std::array<std::uint8_t, 6> octets{};
  std::copy_n(frame.begin(), octets.size(), octets.begin());
  const MacAddress dst{octets};
  if (dst.is_broadcast() || dst.is_multicast()) {
    flood(in_port, frame, false);
    return;
  }
  auto it = mac_table_.find(dst);
  if (it == mac_table_.end()) {
    flood(in_port, frame, false);
    return;
  }
  if (it->second == in_port) return;  // already on the right segment
  output(it->second, in_port, frame);
}

void Datapath::send_packet_in(std::uint16_t in_port, const Bytes& frame,
                              PacketInReason reason, std::uint16_t max_len) {
  if (channel_ == nullptr) return;
  if (fail_safe_) {
    // Deny-new: with the controller dead nobody can answer a packet-in, so
    // queuing it would only stall the buffer pool. Established flows never
    // reach here — they match the table and keep forwarding.
    metrics_.failsafe_dropped_packet_ins.inc();
    return;
  }
  PacketIn pi;
  pi.in_port = in_port;
  pi.reason = reason;
  pi.total_len = static_cast<std::uint16_t>(frame.size());

  // Buffer the full frame and send a (possibly truncated) copy. The copy
  // goes into the storage of an evicted or released buffer when there is
  // one, so a warm datapath punts without allocating.
  BufferedPacket buf;
  if (buffers_.size() >= config_.n_buffers) {
    buf.frame = std::move(buffers_.front().frame);
    buffers_.erase(buffers_.begin());
    metrics_.buffer_evictions.inc();
  } else if (!spare_frames_.empty()) {
    buf.frame = std::move(spare_frames_.back());
    spare_frames_.pop_back();
  }
  buf.id = next_buffer_id_++;
  buf.in_port = in_port;
  buf.frame.assign(frame.begin(), frame.end());
  pi.buffer_id = buf.id;
  buffers_.push_back(std::move(buf));

  // max_len 0 means "whole packet" (the OFPCML_NO_BUFFER convention).
  const std::size_t send_len =
      max_len == 0 ? frame.size() : std::min<std::size_t>(frame.size(), max_len);
  pi.data = std::span<const std::uint8_t>(frame).first(send_len);

  metrics_.packet_ins.inc();
  send_to_controller(pi, next_xid_++);
}

std::optional<Bytes> Datapath::take_buffered(std::uint32_t buffer_id) {
  auto it = std::find_if(buffers_.begin(), buffers_.end(),
                         [&](const BufferedPacket& b) { return b.id == buffer_id; });
  if (it == buffers_.end()) return std::nullopt;
  Bytes frame = std::move(it->frame);
  buffers_.erase(it);
  return frame;
}

void Datapath::recycle_frame(Bytes&& frame) {
  if (buffers_.size() + spare_frames_.size() < config_.n_buffers) {
    spare_frames_.push_back(std::move(frame));
  }
}

template <typename T>
void Datapath::send_to_controller(const T& msg, std::uint32_t xid) {
  if (channel_ == nullptr) return;
  encode_into(tx_, xid, msg);
  channel_->send(tx_);
  // A features reply or a flow-stats fragment must not pin its size.
  release_if_oversized(tx_, kKeepTxBytes);
}

void Datapath::send_error(ErrorType type, std::uint16_t code, std::uint32_t xid,
                          const Bytes& offending) {
  ErrorMsg err;
  err.type = type;
  err.code = code;
  const std::size_t keep = std::min<std::size_t>(offending.size(), 64);
  err.data.assign(offending.begin(),
                  offending.begin() + static_cast<std::ptrdiff_t>(keep));
  send_to_controller(err, xid);
}

void Datapath::handle_channel_message(const Bytes& encoded) {
  auto env = decode(encoded);
  if (!env) {
    HW_LOG_WARN(kLog, "undecodable controller message: %s",
                env.error().message.c_str());
    return;
  }
  const std::uint32_t xid = env.value().xid;
  last_channel_rx_ = loop_.now();
  if (fail_safe_) {
    // Any controller traffic proves the channel is back.
    fail_safe_ = false;
    metrics_.fail_safe.set(0);
    HW_LOG_INFO(kLog, "controller heard again; leaving fail-safe mode");
  }

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Hello>) {
          // version negotiation trivially succeeds (both speak 0x01)
        } else if constexpr (std::is_same_v<T, EchoRequest>) {
          send_to_controller(EchoReply{m.data}, xid);
        } else if constexpr (std::is_same_v<T, FeaturesRequest>) {
          FeaturesReply reply;
          reply.datapath_id = config_.datapath_id;
          reply.n_buffers = static_cast<std::uint32_t>(config_.n_buffers);
          reply.ports = port_descriptions();
          send_to_controller(reply, xid);
        } else if constexpr (std::is_same_v<T, BarrierRequest>) {
          send_to_controller(BarrierReply{}, xid);
        } else if constexpr (std::is_same_v<T, FlowMod>) {
          handle_flow_mod(std::move(m), xid);
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          handle_packet_out(m, xid);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          handle_stats_request(m, xid);
        } else {
          send_error(ErrorType::BadRequest, /*OFPBRC_BAD_TYPE=*/1, xid, encoded);
        }
      },
      std::move(env).take().msg);
}

void Datapath::handle_flow_mod(FlowMod&& mod, std::uint32_t xid) {
  metrics_.flow_mods.inc();
  if (flow_mod_observer_) flow_mod_observer_(mod);
  // A buffered packet attached to an ADD or MODIFY is released through the
  // new rule. An ADD moves its actions into the table, so the release reads
  // them back from the installed entry; a modify keeps a copy.
  const bool releases = mod.buffer_id != kNoBuffer &&
                        (mod.command == FlowModCommand::Add ||
                         mod.command == FlowModCommand::Modify ||
                         mod.command == FlowModCommand::ModifyStrict);
  const bool adds = mod.command == FlowModCommand::Add;
  const ActionList modified = releases && !adds ? mod.actions : ActionList{};
  const Match match = mod.match;
  const std::uint16_t priority = mod.priority;
  const std::uint32_t buffer_id = mod.buffer_id;
  std::vector<FlowEntry> removed;
  const FlowModResult result =
      table_.apply(std::move(mod), loop_.now(), &removed);

  if (result == FlowModResult::Overlap) {
    send_error(ErrorType::FlowModFailed, /*OFPFMFC_OVERLAP=*/2, xid, {});
    return;
  }
  if (result == FlowModResult::TableFull) {
    send_error(ErrorType::FlowModFailed, /*OFPFMFC_ALL_TABLES_FULL=*/0, xid, {});
    return;
  }

  for (const auto& e : removed) {
    if (!e.send_flow_removed) continue;
    FlowRemoved fr;
    fr.match = e.match;
    fr.cookie = e.cookie;
    fr.priority = e.priority;
    fr.reason = FlowRemovedReason::Delete;
    fr.duration_sec =
        static_cast<std::uint32_t>((loop_.now() - e.install_time) / kSecond);
    fr.idle_timeout = e.idle_timeout;
    fr.packet_count = e.packet_count;
    fr.byte_count = e.byte_count;
    metrics_.flow_removed_sent.inc();
    send_to_controller(fr, next_xid_++);
  }

  if (!releases) return;
  if (auto frame = take_buffered(buffer_id)) {
    const FlowEntry* added = adds ? table_.find_strict(match, priority) : nullptr;
    apply_actions(added != nullptr ? added->actions : modified, match.in_port,
                  *frame);
    recycle_frame(std::move(*frame));
  }
}

void Datapath::handle_packet_out(const PacketOut& po, std::uint32_t xid) {
  metrics_.packet_outs.inc();
  if (po.buffer_id == kNoBuffer) {
    apply_actions(po.actions, po.in_port, po.data);
    return;
  }
  auto buffered = take_buffered(po.buffer_id);
  if (!buffered) {
    send_error(ErrorType::BadRequest, /*OFPBRC_BUFFER_UNKNOWN=*/8, xid, {});
    return;
  }
  apply_actions(po.actions, po.in_port, *buffered);
  recycle_frame(std::move(*buffered));
}

void Datapath::handle_stats_request(const StatsRequest& req, std::uint32_t xid) {
  StatsReply reply;
  reply.type = req.type;
  switch (req.type) {
    case StatsType::Desc:
      reply.body = DescStats{};
      break;
    case StatsType::Flow: {
      const auto* filter = std::get_if<FlowStatsRequest>(&req.body);
      const Match match = filter != nullptr ? filter->match : Match::any();
      const std::uint16_t out_port =
          filter != nullptr ? filter->out_port : port_no(Port::None);
      // The u16 length in the OF 1.0 header caps a frame at 64 KiB; a large
      // table's reply paginates with OFPSF_REPLY_MORE, as the spec
      // prescribes. The budget stays well under the cap so action lists
      // never push a fragment over.
      constexpr std::size_t kFragmentBudget = 32 * 1024;
      std::vector<FlowStatsEntry> batch;
      std::size_t batch_bytes = 0;
      for (const FlowEntry* e : table_.query(match, out_port)) {
        FlowStatsEntry fs;
        fs.match = e->match;
        fs.priority = e->priority;
        fs.idle_timeout = e->idle_timeout;
        fs.hard_timeout = e->hard_timeout;
        fs.cookie = e->cookie;
        fs.duration_sec =
            static_cast<std::uint32_t>((loop_.now() - e->install_time) / kSecond);
        fs.duration_nsec = static_cast<std::uint32_t>(
            ((loop_.now() - e->install_time) % kSecond) * 1000);
        fs.packet_count = e->packet_count;
        fs.byte_count = e->byte_count;
        fs.actions = e->actions;
        const std::size_t wire = 88 + 16 * fs.actions.size();
        if (!batch.empty() && batch_bytes + wire > kFragmentBudget) {
          StatsReply fragment;
          fragment.type = StatsType::Flow;
          fragment.flags = kStatsReplyMore;
          fragment.body = std::move(batch);
          send_to_controller(fragment, xid);
          batch.clear();
          batch_bytes = 0;
        }
        batch_bytes += wire;
        batch.push_back(std::move(fs));
      }
      reply.body = std::move(batch);
      break;
    }
    case StatsType::Aggregate: {
      const auto* filter = std::get_if<FlowStatsRequest>(&req.body);
      const Match match = filter != nullptr ? filter->match : Match::any();
      AggregateStatsReplyBody agg;
      for (const FlowEntry* e : table_.query(match)) {
        agg.packet_count += e->packet_count;
        agg.byte_count += e->byte_count;
        ++agg.flow_count;
      }
      reply.body = agg;
      break;
    }
    case StatsType::Port: {
      const auto* filter = std::get_if<PortStatsRequest>(&req.body);
      const std::uint16_t want =
          filter != nullptr ? filter->port_no : port_no(Port::None);
      std::vector<PortStatsEntry> entries;
      for (const auto& [no, state] : ports_) {
        if (want != port_no(Port::None) && want != 0xffff && want != no) continue;
        PortStatsEntry ps;
        ps.port_no = no;
        ps.rx_packets = state.counters.rx_packets;
        ps.tx_packets = state.counters.tx_packets;
        ps.rx_bytes = state.counters.rx_bytes;
        ps.tx_bytes = state.counters.tx_bytes;
        ps.rx_dropped = state.counters.rx_dropped;
        ps.tx_dropped = state.counters.tx_dropped;
        entries.push_back(ps);
      }
      reply.body = std::move(entries);
      break;
    }
    default:
      send_error(ErrorType::BadRequest, /*OFPBRC_BAD_STAT=*/5, xid, {});
      return;
  }
  send_to_controller(reply, xid);
}

void Datapath::configure_queue(std::uint16_t port, std::uint32_t queue_id,
                               std::uint64_t rate_bps, std::uint64_t burst_bytes) {
  Queue queue;
  queue.bucket = TokenBucket(rate_bps / 8, burst_bytes);
  queues_[{port, queue_id}] = queue;
}

void Datapath::remove_queue(std::uint16_t port, std::uint32_t queue_id) {
  queues_.erase({port, queue_id});
}

const Datapath::QueueCounters* Datapath::queue_counters(
    std::uint16_t port, std::uint32_t queue_id) const {
  auto it = queues_.find({port, queue_id});
  return it == queues_.end() ? nullptr : &it->second.counters;
}

void Datapath::sweep_timeouts() {
  if (!fail_safe_ && channel_ != nullptr &&
      config_.controller_dead_interval > 0 &&
      loop_.now() - last_channel_rx_ > config_.controller_dead_interval) {
    fail_safe_ = true;
    metrics_.failsafe_entries.inc();
    metrics_.fail_safe.set(1);
    HW_LOG_WARN(kLog,
                "no controller traffic for %llu us; entering fail-safe mode",
                static_cast<unsigned long long>(loop_.now() - last_channel_rx_));
  }
  for (auto& [entry, reason] : table_.expire(loop_.now(), fail_safe_)) {
    if (!entry.send_flow_removed) continue;
    FlowRemoved fr;
    fr.match = entry.match;
    fr.cookie = entry.cookie;
    fr.priority = entry.priority;
    fr.reason = reason;
    fr.duration_sec =
        static_cast<std::uint32_t>((loop_.now() - entry.install_time) / kSecond);
    fr.idle_timeout = entry.idle_timeout;
    fr.packet_count = entry.packet_count;
    fr.byte_count = entry.byte_count;
    metrics_.flow_removed_sent.inc();
    send_to_controller(fr, next_xid_++);
  }
}

}  // namespace hw::ofp
