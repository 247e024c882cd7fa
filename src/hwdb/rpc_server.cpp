#include "hwdb/rpc_server.hpp"

#include "util/logging.hpp"

namespace hw::hwdb::rpc {
namespace {
constexpr std::string_view kLog = "hwdb-rpc";
}  // namespace

const Bytes* DedupCache::find(ClientAddress from,
                              std::uint32_t request_id) const {
  const auto client = clients_.find(from);
  if (client == clients_.end()) return nullptr;
  const auto it = client->second.responses.find(request_id);
  return it == client->second.responses.end() ? nullptr : &it->second;
}

void DedupCache::remember(ClientAddress from, std::uint32_t request_id,
                          Bytes response) {
  State& state = clients_[from];
  state.responses[request_id] = std::move(response);
  state.order.push_back(request_id);
  if (state.order.size() > window_) {
    state.responses.erase(state.order.front());
    state.order.pop_front();
  }
}

void DedupCache::drop_client(ClientAddress from) { clients_.erase(from); }

RpcServer::~RpcServer() {
  for (const auto& [sub_id, _] : sub_owner_) db_.unsubscribe(sub_id);
}

void RpcServer::handle_datagram(ClientAddress from,
                                std::span<const std::uint8_t> datagram) {
  auto decoded = decode(datagram, /*from_server=*/false);
  if (!decoded) {
    metrics_.errors.inc();
    HW_LOG_WARN(kLog, "bad request datagram: %s", decoded.error().message.c_str());
    return;
  }
  const auto* req = std::get_if<Request>(&decoded.value());
  if (req == nullptr) {
    metrics_.errors.inc();
    return;
  }
  metrics_.requests.inc();

  // A retransmission of an already-answered request replays the cached
  // response without re-executing the body — this is what keeps retried
  // inserts/subscribes idempotent over the lossy UDP transport.
  if (const Bytes* cached = dedup_.find(from, req->request_id)) {
    metrics_.dup_suppressed.inc();
    send_(from, *cached);
    return;
  }

  Bytes encoded_resp = encode(process(from, *req));
  dedup_.remember(from, req->request_id, encoded_resp);
  send_(from, encoded_resp);
}

Response RpcServer::process(ClientAddress from, const Request& req) {
  Response resp;
  resp.request_id = req.request_id;

  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, InsertRequest>) {
          auto status = db_.insert(body.table, refs(body.values));
          if (!status.ok()) {
            resp.ok = false;
            resp.error = status.error().message;
          }
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          auto rs = db_.query(body.cql);
          if (!rs) {
            resp.ok = false;
            resp.error = rs.error().message;
          } else {
            resp.result = std::move(rs).take();
          }
        } else if constexpr (std::is_same_v<T, SubscribeRequest>) {
          const auto mode = body.on_insert ? SubscriptionMode::OnInsert
                                           : SubscriptionMode::Periodic;
          auto sub = db_.subscribe(
              body.cql, mode,
              static_cast<Duration>(body.period_ms) * kMillisecond,
              [this, from](SubscriptionId id, const ResultSet& rs) {
                metrics_.pushes.inc();
                send_(from, encode(Publish{id, rs}));
              });
          if (!sub) {
            resp.ok = false;
            resp.error = sub.error().message;
          } else {
            sub_owner_[sub.value()] = from;
            resp.sub_id = sub.value();
          }
        } else if constexpr (std::is_same_v<T, UnsubscribeRequest>) {
          db_.unsubscribe(body.sub_id);
          sub_owner_.erase(body.sub_id);
        } else if constexpr (std::is_same_v<T, SubscribeSeriesRequest> ||
                             std::is_same_v<T, MutateRequest>) {
          // Live-operations verbs only make sense against a LiveServer.
          resp.ok = false;
          resp.error = "RPC: live verb on an hwdb endpoint";
        } else {
          // Ping: empty ok response.
        }
      },
      req.body);
  if (!resp.ok) metrics_.errors.inc();
  return resp;
}

void RpcServer::drop_client(ClientAddress addr) {
  dedup_.drop_client(addr);
  for (auto it = sub_owner_.begin(); it != sub_owner_.end();) {
    if (it->second == addr) {
      db_.unsubscribe(it->first);
      it = sub_owner_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace hw::hwdb::rpc
