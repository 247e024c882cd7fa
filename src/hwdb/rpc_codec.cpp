#include "hwdb/rpc_codec.hpp"

#include <bit>
#include <cstring>

namespace hw::hwdb::rpc {
namespace {

// Smallest encodings a count can promise: a value is a type tag plus at
// least a u16 text length; a delta entry is a u16 name length plus a u64.
constexpr std::size_t kMinValueBytes = 3;
constexpr std::size_t kMinDeltaEntryBytes = 10;

/// Whether the rest of the datagram can hold `count` items of at least
/// `min_bytes` each. Counts come off the wire, so they are checked before
/// anything is sized from them.
bool fits(const ByteReader& r, std::uint64_t count, std::size_t min_bytes) {
  return count <= r.remaining() / min_bytes;
}

void write_str16(ByteWriter& w, const std::string& s) {
  const std::size_t len = std::min<std::size_t>(s.size(), 0xffff);
  w.u16(static_cast<std::uint16_t>(len));
  w.raw(s.data(), len);
}

Result<std::string> read_str16(ByteReader& r) {
  auto len = r.u16();
  if (!len) return len.error();
  return r.fixed_string(len.value());
}

}  // namespace

void write_value(ByteWriter& w, const Value& v) {
  w.u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ColumnType::Int:
      w.u64(static_cast<std::uint64_t>(v.as_int()));
      break;
    case ColumnType::Real: {
      w.u64(std::bit_cast<std::uint64_t>(v.as_real()));
      break;
    }
    case ColumnType::Text:
      write_str16(w, v.as_text());
      break;
    case ColumnType::Ts:
      w.u64(v.as_ts());
      break;
  }
}

Result<Value> read_value(ByteReader& r) {
  auto type = r.u8();
  if (!type) return type.error();
  if (type.value() > 3) return make_error("RPC: bad value type tag");
  switch (static_cast<ColumnType>(type.value())) {
    case ColumnType::Int: {
      auto v = r.u64();
      if (!v) return v.error();
      return Value{static_cast<std::int64_t>(v.value())};
    }
    case ColumnType::Real: {
      auto v = r.u64();
      if (!v) return v.error();
      return Value{std::bit_cast<double>(v.value())};
    }
    case ColumnType::Text: {
      auto s = read_str16(r);
      if (!s) return s.error();
      return Value{std::move(s).take()};
    }
    case ColumnType::Ts: {
      auto v = r.u64();
      if (!v) return v.error();
      return Value::ts(v.value());
    }
  }
  return make_error("RPC: unreachable value type");
}

void write_result_set(ByteWriter& w, const ResultSet& rs) {
  w.u16(static_cast<std::uint16_t>(rs.columns.size()));
  for (const auto& c : rs.columns) write_str16(w, c);
  w.u32(static_cast<std::uint32_t>(rs.rows.size()));
  for (const auto& row : rs.rows) {
    for (const auto& v : row) write_value(w, v);
  }
}

Result<ResultSet> read_result_set(ByteReader& r) {
  ResultSet rs;
  auto ncols = r.u16();
  if (!ncols) return ncols.error();
  for (int i = 0; i < ncols.value(); ++i) {
    auto name = read_str16(r);
    if (!name) return name.error();
    rs.columns.push_back(std::move(name).take());
  }
  auto nrows = r.u32();
  if (!nrows) return nrows.error();
  const std::size_t width = rs.columns.size();
  if (width == 0 ? nrows.value() > 0
                 : !fits(r, nrows.value(), width * kMinValueBytes)) {
    return make_error("RPC: row count exceeds datagram");
  }
  rs.rows.reserve(nrows.value());
  for (std::uint32_t i = 0; i < nrows.value(); ++i) {
    std::vector<Value> row;
    row.reserve(width);
    for (std::size_t c = 0; c < width; ++c) {
      auto v = read_value(r);
      if (!v) return v.error();
      row.push_back(std::move(v).take());
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

Bytes encode(const Request& req) {
  ByteWriter w(64);
  w.u32(req.request_id);
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, InsertRequest>) {
          w.u8(static_cast<std::uint8_t>(Opcode::Insert));
          write_str16(w, body.table);
          w.u16(static_cast<std::uint16_t>(body.values.size()));
          for (const auto& v : body.values) write_value(w, v);
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          w.u8(static_cast<std::uint8_t>(Opcode::Query));
          write_str16(w, body.cql);
        } else if constexpr (std::is_same_v<T, SubscribeRequest>) {
          w.u8(static_cast<std::uint8_t>(Opcode::Subscribe));
          write_str16(w, body.cql);
          w.u8(body.on_insert ? 1 : 0);
          w.u32(body.period_ms);
        } else if constexpr (std::is_same_v<T, UnsubscribeRequest>) {
          w.u8(static_cast<std::uint8_t>(Opcode::Unsubscribe));
          w.u64(body.sub_id);
        } else if constexpr (std::is_same_v<T, SubscribeSeriesRequest>) {
          w.u8(static_cast<std::uint8_t>(Opcode::SubscribeSeries));
          write_str16(w, body.pattern);
          w.u32(body.home);
          w.u32(body.every);
          w.u32(body.max_queue);
        } else if constexpr (std::is_same_v<T, MutateRequest>) {
          w.u8(static_cast<std::uint8_t>(Opcode::Mutate));
          w.u8(static_cast<std::uint8_t>(body.kind));
          w.u32(body.home);
          write_str16(w, body.text);
          write_str16(w, body.aux);
          w.u64(body.arg0);
          w.u64(body.arg1);
        } else {
          w.u8(static_cast<std::uint8_t>(Opcode::Ping));
        }
      },
      req.body);
  return std::move(w).take();
}

Bytes encode(const Response& resp) {
  ByteWriter w(64);
  w.u32(resp.request_id);
  w.u8(resp.ok ? 0 : 1);
  if (!resp.ok) {
    write_str16(w, resp.error);
    return std::move(w).take();
  }
  // Body discriminator: 0 none, 1 resultset, 2 sub_id, 3 applied_at.
  if (resp.result) {
    w.u8(1);
    write_result_set(w, *resp.result);
  } else if (resp.sub_id) {
    w.u8(2);
    w.u64(*resp.sub_id);
  } else if (resp.applied_at) {
    w.u8(3);
    w.u64(*resp.applied_at);
  } else {
    w.u8(0);
  }
  return std::move(w).take();
}

Bytes encode(const Publish& push) {
  ByteWriter w(64);
  w.u32(0);
  w.u8(static_cast<std::uint8_t>(Opcode::Publish));
  w.u64(push.sub_id);
  write_result_set(w, push.result);
  return std::move(w).take();
}

Bytes encode(const DeltaPush& push) {
  ByteWriter w(64);
  w.u32(0);
  w.u8(static_cast<std::uint8_t>(Opcode::Delta));
  w.u64(push.sub_id);
  w.u64(push.seq);
  w.u64(push.vtime);
  w.u32(push.home);
  w.u8(push.snapshot ? 1 : 0);
  w.u64(push.dropped);
  w.u32(static_cast<std::uint32_t>(push.values.size()));
  for (const auto& [name, value] : push.values) {
    write_str16(w, name);
    w.u64(std::bit_cast<std::uint64_t>(value));
  }
  return std::move(w).take();
}

Result<Decoded> decode(std::span<const std::uint8_t> datagram, bool from_server) {
  ByteReader r(datagram);
  auto request_id = r.u32();
  if (!request_id) return request_id.error();

  if (from_server) {
    // Either a push (request_id 0, opcode Publish or Delta) or a response.
    if (request_id.value() == 0) {
      auto opcode = r.u8();
      if (!opcode) return opcode.error();
      if (opcode.value() == static_cast<std::uint8_t>(Opcode::Delta)) {
        DeltaPush push;
        auto sub = r.u64();
        if (!sub) return sub.error();
        push.sub_id = sub.value();
        auto seq = r.u64();
        if (!seq) return seq.error();
        push.seq = seq.value();
        auto vtime = r.u64();
        if (!vtime) return vtime.error();
        push.vtime = vtime.value();
        auto home = r.u32();
        if (!home) return home.error();
        push.home = home.value();
        auto kind = r.u8();
        if (!kind) return kind.error();
        push.snapshot = kind.value() != 0;
        auto dropped = r.u64();
        if (!dropped) return dropped.error();
        push.dropped = dropped.value();
        auto count = r.u32();
        if (!count) return count.error();
        if (!fits(r, count.value(), kMinDeltaEntryBytes)) {
          return make_error("RPC: delta count exceeds datagram");
        }
        push.values.reserve(count.value());
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto name = read_str16(r);
          if (!name) return name.error();
          auto bits = r.u64();
          if (!bits) return bits.error();
          push.values.emplace_back(std::move(name).take(),
                                   std::bit_cast<double>(bits.value()));
        }
        return Decoded{std::move(push)};
      }
      if (opcode.value() != static_cast<std::uint8_t>(Opcode::Publish)) {
        return make_error("RPC: expected Publish opcode");
      }
      Publish push;
      auto sub = r.u64();
      if (!sub) return sub.error();
      push.sub_id = sub.value();
      auto rs = read_result_set(r);
      if (!rs) return rs.error();
      push.result = std::move(rs).take();
      return Decoded{std::move(push)};
    }
    Response resp;
    resp.request_id = request_id.value();
    auto status = r.u8();
    if (!status) return status.error();
    resp.ok = status.value() == 0;
    if (!resp.ok) {
      auto err = read_str16(r);
      if (!err) return err.error();
      resp.error = std::move(err).take();
      return Decoded{std::move(resp)};
    }
    auto disc = r.u8();
    if (!disc) return disc.error();
    if (disc.value() == 1) {
      auto rs = read_result_set(r);
      if (!rs) return rs.error();
      resp.result = std::move(rs).take();
    } else if (disc.value() == 2) {
      auto sub = r.u64();
      if (!sub) return sub.error();
      resp.sub_id = sub.value();
    } else if (disc.value() == 3) {
      auto at = r.u64();
      if (!at) return at.error();
      resp.applied_at = at.value();
    } else if (disc.value() != 0) {
      return make_error("RPC: bad response discriminator");
    }
    return Decoded{std::move(resp)};
  }

  // Client → server: request.
  Request req;
  req.request_id = request_id.value();
  auto opcode = r.u8();
  if (!opcode) return opcode.error();
  switch (static_cast<Opcode>(opcode.value())) {
    case Opcode::Insert: {
      InsertRequest body;
      auto table = read_str16(r);
      if (!table) return table.error();
      body.table = std::move(table).take();
      auto n = r.u16();
      if (!n) return n.error();
      if (!fits(r, n.value(), kMinValueBytes)) {
        return make_error("RPC: value count exceeds datagram");
      }
      for (int i = 0; i < n.value(); ++i) {
        auto v = read_value(r);
        if (!v) return v.error();
        body.values.push_back(std::move(v).take());
      }
      req.body = std::move(body);
      return Decoded{std::move(req)};
    }
    case Opcode::Query: {
      auto cql = read_str16(r);
      if (!cql) return cql.error();
      req.body = QueryRequest{std::move(cql).take()};
      return Decoded{std::move(req)};
    }
    case Opcode::Subscribe: {
      SubscribeRequest body;
      auto cql = read_str16(r);
      if (!cql) return cql.error();
      body.cql = std::move(cql).take();
      auto mode = r.u8();
      if (!mode) return mode.error();
      body.on_insert = mode.value() != 0;
      auto period = r.u32();
      if (!period) return period.error();
      body.period_ms = period.value();
      req.body = std::move(body);
      return Decoded{std::move(req)};
    }
    case Opcode::Unsubscribe: {
      auto sub = r.u64();
      if (!sub) return sub.error();
      req.body = UnsubscribeRequest{sub.value()};
      return Decoded{std::move(req)};
    }
    case Opcode::Ping:
      req.body = PingRequest{};
      return Decoded{std::move(req)};
    case Opcode::SubscribeSeries: {
      SubscribeSeriesRequest body;
      auto pattern = read_str16(r);
      if (!pattern) return pattern.error();
      body.pattern = std::move(pattern).take();
      auto home = r.u32();
      if (!home) return home.error();
      body.home = home.value();
      auto every = r.u32();
      if (!every) return every.error();
      body.every = every.value();
      auto max_queue = r.u32();
      if (!max_queue) return max_queue.error();
      body.max_queue = max_queue.value();
      req.body = std::move(body);
      return Decoded{std::move(req)};
    }
    case Opcode::Mutate: {
      MutateRequest body;
      auto kind = r.u8();
      if (!kind) return kind.error();
      if (kind.value() < 1 ||
          kind.value() > static_cast<std::uint8_t>(MutateKind::Wake)) {
        return make_error("RPC: bad mutate kind");
      }
      body.kind = static_cast<MutateKind>(kind.value());
      auto home = r.u32();
      if (!home) return home.error();
      body.home = home.value();
      auto text = read_str16(r);
      if (!text) return text.error();
      body.text = std::move(text).take();
      auto aux = read_str16(r);
      if (!aux) return aux.error();
      body.aux = std::move(aux).take();
      auto arg0 = r.u64();
      if (!arg0) return arg0.error();
      body.arg0 = arg0.value();
      auto arg1 = r.u64();
      if (!arg1) return arg1.error();
      body.arg1 = arg1.value();
      req.body = std::move(body);
      return Decoded{std::move(req)};
    }
    case Opcode::Publish:
    case Opcode::Delta:
      break;
  }
  return make_error("RPC: bad request opcode");
}

}  // namespace hw::hwdb::rpc
