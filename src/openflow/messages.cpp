#include "openflow/messages.hpp"

#include <algorithm>

#include "net/ethernet.hpp"

namespace hw::ofp {
namespace {

constexpr std::size_t kPhyPortSize = 48;
constexpr std::size_t kDescStrLen = 256;
constexpr std::size_t kSerialNumLen = 32;

void write_phy_port(ByteWriter& w, const PhyPort& p) {
  w.u16(p.port_no);
  w.raw(p.hw_addr.octets().data(), 6);
  w.fixed_string(p.name, 16);
  w.u32(p.config);
  w.u32(p.state);
  w.u32(p.curr);
  w.u32(0);  // advertised
  w.u32(0);  // supported
  w.u32(0);  // peer
}

Result<PhyPort> read_phy_port(ByteReader& r) {
  PhyPort p;
  auto port = r.u16();
  if (!port) return port.error();
  p.port_no = port.value();
  auto mac = net::read_mac(r);
  if (!mac) return mac.error();
  p.hw_addr = mac.value();
  auto name = r.fixed_string(16);
  if (!name) return name.error();
  p.name = std::move(name).take();
  auto config = r.u32();
  if (!config) return config.error();
  p.config = config.value();
  auto state = r.u32();
  if (!state) return state.error();
  p.state = state.value();
  auto curr = r.u32();
  if (!curr) return curr.error();
  p.curr = curr.value();
  if (auto s = r.skip(12); !s.ok()) return s.error();
  return p;
}

template <typename T>
void write_body(ByteWriter& w, const T& m) {
  if constexpr (std::is_same_v<T, Hello> ||
                std::is_same_v<T, FeaturesRequest> ||
                std::is_same_v<T, BarrierRequest> ||
                std::is_same_v<T, BarrierReply>) {
    // header only
  } else if constexpr (std::is_same_v<T, ErrorMsg>) {
    w.u16(static_cast<std::uint16_t>(m.type));
    w.u16(m.code);
    w.raw(m.data);
  } else if constexpr (std::is_same_v<T, EchoRequest> ||
                       std::is_same_v<T, EchoReply>) {
    w.raw(m.data);
  } else if constexpr (std::is_same_v<T, FeaturesReply>) {
    w.u64(m.datapath_id);
    w.u32(m.n_buffers);
    w.u8(m.n_tables);
    w.zeros(3);
    w.u32(m.capabilities);
    w.u32(m.actions);
    for (const auto& p : m.ports) write_phy_port(w, p);
  } else if constexpr (std::is_same_v<T, PacketIn>) {
    w.u32(m.buffer_id);
    w.u16(m.total_len);
    w.u16(m.in_port);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.u8(0);
    w.raw(m.data);
  } else if constexpr (std::is_same_v<T, FlowRemoved>) {
    m.match.serialize(w);
    w.u64(m.cookie);
    w.u16(m.priority);
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.u8(0);
    w.u32(m.duration_sec);
    w.u32(m.duration_nsec);
    w.u16(m.idle_timeout);
    w.zeros(2);
    w.u64(m.packet_count);
    w.u64(m.byte_count);
  } else if constexpr (std::is_same_v<T, PortStatus>) {
    w.u8(static_cast<std::uint8_t>(m.reason));
    w.zeros(7);
    write_phy_port(w, m.desc);
  } else if constexpr (std::is_same_v<T, PacketOut>) {
    w.u32(m.buffer_id);
    w.u16(m.in_port);
    const std::size_t actions_len_at = w.size();
    w.u16(0);  // actions_len, patched once the actions are written
    serialize_actions(w, m.actions);
    w.patch_u16(actions_len_at, static_cast<std::uint16_t>(
                                    w.size() - actions_len_at - 2));
    w.raw(m.data);
  } else if constexpr (std::is_same_v<T, FlowMod>) {
    m.match.serialize(w);
    w.u64(m.cookie);
    w.u16(static_cast<std::uint16_t>(m.command));
    w.u16(m.idle_timeout);
    w.u16(m.hard_timeout);
    w.u16(m.priority);
    w.u32(m.buffer_id);
    w.u16(m.out_port);
    w.u16(m.flags);
    serialize_actions(w, m.actions);
  } else if constexpr (std::is_same_v<T, StatsRequest>) {
    w.u16(static_cast<std::uint16_t>(m.type));
    w.u16(0);  // flags
    if (const auto* flow = std::get_if<FlowStatsRequest>(&m.body)) {
      flow->match.serialize(w);
      w.u8(flow->table_id);
      w.u8(0);
      w.u16(flow->out_port);
    } else if (const auto* port = std::get_if<PortStatsRequest>(&m.body)) {
      w.u16(port->port_no);
      w.zeros(6);
    }
  } else if constexpr (std::is_same_v<T, StatsReply>) {
    w.u16(static_cast<std::uint16_t>(m.type));
    w.u16(m.flags);
    if (const auto* desc = std::get_if<DescStats>(&m.body)) {
      w.fixed_string(desc->mfr_desc, kDescStrLen);
      w.fixed_string(desc->hw_desc, kDescStrLen);
      w.fixed_string(desc->sw_desc, kDescStrLen);
      w.fixed_string(desc->serial_num, kSerialNumLen);
      w.fixed_string(desc->dp_desc, kDescStrLen);
    } else if (const auto* flows =
                   std::get_if<std::vector<FlowStatsEntry>>(&m.body)) {
      for (const auto& f : *flows) {
        const std::size_t entry_at = w.size();
        w.u16(0);  // entry length, patched once the actions are written
        w.u8(f.table_id);
        w.u8(0);
        f.match.serialize(w);
        w.u32(f.duration_sec);
        w.u32(f.duration_nsec);
        w.u16(f.priority);
        w.u16(f.idle_timeout);
        w.u16(f.hard_timeout);
        w.zeros(6);
        w.u64(f.cookie);
        w.u64(f.packet_count);
        w.u64(f.byte_count);
        serialize_actions(w, f.actions);
        w.patch_u16(entry_at,
                    static_cast<std::uint16_t>(w.size() - entry_at));
      }
    } else if (const auto* agg =
                   std::get_if<AggregateStatsReplyBody>(&m.body)) {
      w.u64(agg->packet_count);
      w.u64(agg->byte_count);
      w.u32(agg->flow_count);
      w.zeros(4);
    } else if (const auto* ports =
                   std::get_if<std::vector<PortStatsEntry>>(&m.body)) {
      for (const auto& p : *ports) {
        w.u16(p.port_no);
        w.zeros(6);
        w.u64(p.rx_packets);
        w.u64(p.tx_packets);
        w.u64(p.rx_bytes);
        w.u64(p.tx_bytes);
        w.u64(p.rx_dropped);
        w.u64(p.tx_dropped);
        w.u64(0);  // rx_errors
        w.u64(0);  // tx_errors
        w.u64(0);  // rx_frame_err
        w.u64(0);  // rx_over_err
        w.u64(0);  // rx_crc_err
        w.u64(0);  // collisions
      }
    }
  }
}

Result<Message> decode_body(MsgType type, ByteReader& r) {
  switch (type) {
    case MsgType::Hello:
      return Message{Hello{}};
    case MsgType::FeaturesRequest:
      return Message{FeaturesRequest{}};
    case MsgType::BarrierRequest:
      return Message{BarrierRequest{}};
    case MsgType::BarrierReply:
      return Message{BarrierReply{}};
    case MsgType::Error: {
      ErrorMsg m;
      auto t = r.u16();
      if (!t) return t.error();
      m.type = static_cast<ErrorType>(t.value());
      auto c = r.u16();
      if (!c) return c.error();
      m.code = c.value();
      auto data = r.raw(r.remaining());
      if (!data) return data.error();
      m.data = std::move(data).take();
      return Message{std::move(m)};
    }
    case MsgType::EchoRequest: {
      auto data = r.raw(r.remaining());
      if (!data) return data.error();
      return Message{EchoRequest{std::move(data).take()}};
    }
    case MsgType::EchoReply: {
      auto data = r.raw(r.remaining());
      if (!data) return data.error();
      return Message{EchoReply{std::move(data).take()}};
    }
    case MsgType::FeaturesReply: {
      FeaturesReply m;
      auto dpid = r.u64();
      if (!dpid) return dpid.error();
      m.datapath_id = dpid.value();
      auto nbuf = r.u32();
      if (!nbuf) return nbuf.error();
      m.n_buffers = nbuf.value();
      auto ntab = r.u8();
      if (!ntab) return ntab.error();
      m.n_tables = ntab.value();
      if (auto s = r.skip(3); !s.ok()) return s.error();
      auto caps = r.u32();
      if (!caps) return caps.error();
      m.capabilities = caps.value();
      auto acts = r.u32();
      if (!acts) return acts.error();
      m.actions = acts.value();
      while (r.remaining() >= kPhyPortSize) {
        auto p = read_phy_port(r);
        if (!p) return p.error();
        m.ports.push_back(std::move(p).take());
      }
      return Message{std::move(m)};
    }
    case MsgType::PacketIn: {
      PacketIn m;
      auto buf = r.u32();
      if (!buf) return buf.error();
      m.buffer_id = buf.value();
      auto total = r.u16();
      if (!total) return total.error();
      m.total_len = total.value();
      auto in_port = r.u16();
      if (!in_port) return in_port.error();
      m.in_port = in_port.value();
      auto reason = r.u8();
      if (!reason) return reason.error();
      m.reason = static_cast<PacketInReason>(reason.value());
      if (auto s = r.skip(1); !s.ok()) return s.error();
      auto data = r.view(r.remaining());
      if (!data) return data.error();
      m.data = data.value();
      return Message{std::move(m)};
    }
    case MsgType::FlowRemoved: {
      FlowRemoved m;
      auto match = Match::parse(r);
      if (!match) return match.error();
      m.match = match.value();
      auto cookie = r.u64();
      if (!cookie) return cookie.error();
      m.cookie = cookie.value();
      auto prio = r.u16();
      if (!prio) return prio.error();
      m.priority = prio.value();
      auto reason = r.u8();
      if (!reason) return reason.error();
      m.reason = static_cast<FlowRemovedReason>(reason.value());
      if (auto s = r.skip(1); !s.ok()) return s.error();
      auto dsec = r.u32();
      if (!dsec) return dsec.error();
      m.duration_sec = dsec.value();
      auto dnsec = r.u32();
      if (!dnsec) return dnsec.error();
      m.duration_nsec = dnsec.value();
      auto idle = r.u16();
      if (!idle) return idle.error();
      m.idle_timeout = idle.value();
      if (auto s = r.skip(2); !s.ok()) return s.error();
      auto pkts = r.u64();
      if (!pkts) return pkts.error();
      m.packet_count = pkts.value();
      auto bytes = r.u64();
      if (!bytes) return bytes.error();
      m.byte_count = bytes.value();
      return Message{std::move(m)};
    }
    case MsgType::PortStatus: {
      PortStatus m;
      auto reason = r.u8();
      if (!reason) return reason.error();
      m.reason = static_cast<PortReason>(reason.value());
      if (auto s = r.skip(7); !s.ok()) return s.error();
      auto desc = read_phy_port(r);
      if (!desc) return desc.error();
      m.desc = std::move(desc).take();
      return Message{std::move(m)};
    }
    case MsgType::PacketOut: {
      PacketOut m;
      auto buf = r.u32();
      if (!buf) return buf.error();
      m.buffer_id = buf.value();
      auto in_port = r.u16();
      if (!in_port) return in_port.error();
      m.in_port = in_port.value();
      auto alen = r.u16();
      if (!alen) return alen.error();
      auto actions = parse_actions(r, alen.value());
      if (!actions) return actions.error();
      m.actions = std::move(actions).take();
      auto data = r.raw(r.remaining());
      if (!data) return data.error();
      m.data = std::move(data).take();
      return Message{std::move(m)};
    }
    case MsgType::FlowMod: {
      FlowMod m;
      auto match = Match::parse(r);
      if (!match) return match.error();
      m.match = match.value();
      auto cookie = r.u64();
      if (!cookie) return cookie.error();
      m.cookie = cookie.value();
      auto cmd = r.u16();
      if (!cmd) return cmd.error();
      if (cmd.value() > 4) return make_error("FlowMod: bad command");
      m.command = static_cast<FlowModCommand>(cmd.value());
      auto idle = r.u16();
      if (!idle) return idle.error();
      m.idle_timeout = idle.value();
      auto hard = r.u16();
      if (!hard) return hard.error();
      m.hard_timeout = hard.value();
      auto prio = r.u16();
      if (!prio) return prio.error();
      m.priority = prio.value();
      auto buf = r.u32();
      if (!buf) return buf.error();
      m.buffer_id = buf.value();
      auto out_port = r.u16();
      if (!out_port) return out_port.error();
      m.out_port = out_port.value();
      auto flags = r.u16();
      if (!flags) return flags.error();
      m.flags = flags.value();
      auto actions = parse_actions(r, r.remaining());
      if (!actions) return actions.error();
      m.actions = std::move(actions).take();
      return Message{std::move(m)};
    }
    case MsgType::StatsRequest: {
      StatsRequest m;
      auto t = r.u16();
      if (!t) return t.error();
      m.type = static_cast<StatsType>(t.value());
      if (auto s = r.skip(2); !s.ok()) return s.error();  // flags
      if (m.type == StatsType::Flow || m.type == StatsType::Aggregate) {
        FlowStatsRequest body;
        auto match = Match::parse(r);
        if (!match) return match.error();
        body.match = match.value();
        auto table = r.u8();
        if (!table) return table.error();
        body.table_id = table.value();
        if (auto s = r.skip(1); !s.ok()) return s.error();
        auto out_port = r.u16();
        if (!out_port) return out_port.error();
        body.out_port = out_port.value();
        m.body = body;
      } else if (m.type == StatsType::Port) {
        PortStatsRequest body;
        auto port = r.u16();
        if (!port) return port.error();
        body.port_no = port.value();
        if (auto s = r.skip(6); !s.ok()) return s.error();
        m.body = body;
      }
      return Message{std::move(m)};
    }
    case MsgType::StatsReply: {
      StatsReply m;
      auto t = r.u16();
      if (!t) return t.error();
      m.type = static_cast<StatsType>(t.value());
      auto fl = r.u16();
      if (!fl) return fl.error();
      m.flags = fl.value();
      switch (m.type) {
        case StatsType::Desc: {
          DescStats desc;
          auto mfr = r.fixed_string(kDescStrLen);
          if (!mfr) return mfr.error();
          desc.mfr_desc = std::move(mfr).take();
          auto hwd = r.fixed_string(kDescStrLen);
          if (!hwd) return hwd.error();
          desc.hw_desc = std::move(hwd).take();
          auto sw = r.fixed_string(kDescStrLen);
          if (!sw) return sw.error();
          desc.sw_desc = std::move(sw).take();
          auto serial = r.fixed_string(kSerialNumLen);
          if (!serial) return serial.error();
          desc.serial_num = std::move(serial).take();
          auto dp = r.fixed_string(kDescStrLen);
          if (!dp) return dp.error();
          desc.dp_desc = std::move(dp).take();
          m.body = std::move(desc);
          break;
        }
        case StatsType::Flow: {
          std::vector<FlowStatsEntry> flows;
          while (r.remaining() >= 88) {
            FlowStatsEntry f;
            auto len = r.u16();
            if (!len) return len.error();
            if (len.value() < 88) return make_error("FlowStats: bad length");
            auto table = r.u8();
            if (!table) return table.error();
            f.table_id = table.value();
            if (auto s = r.skip(1); !s.ok()) return s.error();
            auto match = Match::parse(r);
            if (!match) return match.error();
            f.match = match.value();
            auto dsec = r.u32();
            if (!dsec) return dsec.error();
            f.duration_sec = dsec.value();
            auto dnsec = r.u32();
            if (!dnsec) return dnsec.error();
            f.duration_nsec = dnsec.value();
            auto prio = r.u16();
            if (!prio) return prio.error();
            f.priority = prio.value();
            auto idle = r.u16();
            if (!idle) return idle.error();
            f.idle_timeout = idle.value();
            auto hard = r.u16();
            if (!hard) return hard.error();
            f.hard_timeout = hard.value();
            if (auto s = r.skip(6); !s.ok()) return s.error();
            auto cookie = r.u64();
            if (!cookie) return cookie.error();
            f.cookie = cookie.value();
            auto pkts = r.u64();
            if (!pkts) return pkts.error();
            f.packet_count = pkts.value();
            auto bytes = r.u64();
            if (!bytes) return bytes.error();
            f.byte_count = bytes.value();
            auto actions = parse_actions(r, len.value() - 88u);
            if (!actions) return actions.error();
            f.actions = std::move(actions).take();
            flows.push_back(std::move(f));
          }
          m.body = std::move(flows);
          break;
        }
        case StatsType::Aggregate: {
          AggregateStatsReplyBody agg;
          auto pkts = r.u64();
          if (!pkts) return pkts.error();
          agg.packet_count = pkts.value();
          auto bytes = r.u64();
          if (!bytes) return bytes.error();
          agg.byte_count = bytes.value();
          auto flows = r.u32();
          if (!flows) return flows.error();
          agg.flow_count = flows.value();
          if (auto s = r.skip(4); !s.ok()) return s.error();
          m.body = agg;
          break;
        }
        case StatsType::Port: {
          std::vector<PortStatsEntry> ports;
          while (r.remaining() >= 104) {
            PortStatsEntry p;
            auto port = r.u16();
            if (!port) return port.error();
            p.port_no = port.value();
            if (auto s = r.skip(6); !s.ok()) return s.error();
            auto rd = [&](std::uint64_t& field) -> Status {
              auto v = r.u64();
              if (!v) return Status::failure(v.error().message);
              field = v.value();
              return {};
            };
            if (auto s = rd(p.rx_packets); !s.ok()) return s.error();
            if (auto s = rd(p.tx_packets); !s.ok()) return s.error();
            if (auto s = rd(p.rx_bytes); !s.ok()) return s.error();
            if (auto s = rd(p.tx_bytes); !s.ok()) return s.error();
            if (auto s = rd(p.rx_dropped); !s.ok()) return s.error();
            if (auto s = rd(p.tx_dropped); !s.ok()) return s.error();
            if (auto s = r.skip(48); !s.ok()) return s.error();
            ports.push_back(p);
          }
          m.body = std::move(ports);
          break;
        }
        default:
          break;
      }
      return Message{std::move(m)};
    }
  }
  return make_error("OF: unknown message type");
}

}  // namespace

MsgType type_of(const Message& msg) {
  return std::visit([](const auto& m) { return m.kType; }, msg);
}

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::Hello: return "HELLO";
    case MsgType::Error: return "ERROR";
    case MsgType::EchoRequest: return "ECHO_REQUEST";
    case MsgType::EchoReply: return "ECHO_REPLY";
    case MsgType::FeaturesRequest: return "FEATURES_REQUEST";
    case MsgType::FeaturesReply: return "FEATURES_REPLY";
    case MsgType::PacketIn: return "PACKET_IN";
    case MsgType::FlowRemoved: return "FLOW_REMOVED";
    case MsgType::PortStatus: return "PORT_STATUS";
    case MsgType::PacketOut: return "PACKET_OUT";
    case MsgType::FlowMod: return "FLOW_MOD";
    case MsgType::StatsRequest: return "STATS_REQUEST";
    case MsgType::StatsReply: return "STATS_REPLY";
    case MsgType::BarrierRequest: return "BARRIER_REQUEST";
    case MsgType::BarrierReply: return "BARRIER_REPLY";
  }
  return "?";
}

template <typename T>
void encode_into(Bytes& out, std::uint32_t xid, const T& msg) {
  ByteWriter w(std::move(out));
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(T::kType));
  w.u16(0);  // length patched below
  w.u32(xid);
  write_body(w, msg);
  w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
  out = std::move(w).take();
}

template void encode_into(Bytes&, std::uint32_t, const Hello&);
template void encode_into(Bytes&, std::uint32_t, const ErrorMsg&);
template void encode_into(Bytes&, std::uint32_t, const EchoRequest&);
template void encode_into(Bytes&, std::uint32_t, const EchoReply&);
template void encode_into(Bytes&, std::uint32_t, const FeaturesRequest&);
template void encode_into(Bytes&, std::uint32_t, const FeaturesReply&);
template void encode_into(Bytes&, std::uint32_t, const PacketIn&);
template void encode_into(Bytes&, std::uint32_t, const FlowRemoved&);
template void encode_into(Bytes&, std::uint32_t, const PortStatus&);
template void encode_into(Bytes&, std::uint32_t, const PacketOut&);
template void encode_into(Bytes&, std::uint32_t, const FlowMod&);
template void encode_into(Bytes&, std::uint32_t, const StatsRequest&);
template void encode_into(Bytes&, std::uint32_t, const StatsReply&);
template void encode_into(Bytes&, std::uint32_t, const BarrierRequest&);
template void encode_into(Bytes&, std::uint32_t, const BarrierReply&);

Bytes encode(const Envelope& env) {
  Bytes out;
  std::visit([&](const auto& m) { encode_into(out, env.xid, m); }, env.msg);
  return out;
}

Result<Envelope> decode(std::span<const std::uint8_t> buf) {
  ByteReader r(buf);
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != kWireVersion) return make_error("OF: bad version");
  auto type = r.u8();
  if (!type) return type.error();
  auto length = r.u16();
  if (!length) return length.error();
  if (length.value() != buf.size()) return make_error("OF: length mismatch");
  auto xid = r.u32();
  if (!xid) return xid.error();

  auto msg = decode_body(static_cast<MsgType>(type.value()), r);
  if (!msg) return msg.error();
  return Envelope{xid.value(), std::move(msg).take()};
}

std::size_t peek_length(std::span<const std::uint8_t> buf) {
  if (buf.size() < kHeaderSize) return 0;
  return (static_cast<std::size_t>(buf[2]) << 8) | buf[3];
}

}  // namespace hw::ofp
