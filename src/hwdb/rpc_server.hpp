// Transport-independent RPC service endpoint binding a Database. Satellite
// devices (the paper's visualization/control interfaces) talk to this over
// UDP; tests and the in-process UIs use it directly.
//
// Reliability contract with RpcClient: clients may retransmit a request
// (same request id) when the response is lost. The server keeps a bounded
// per-client window of recently answered request ids and replays the cached
// response for a duplicate instead of re-executing it, so retried writes
// (inserts, subscribes) stay idempotent.
#pragma once

#include <deque>
#include <functional>
#include <map>

#include "hwdb/database.hpp"
#include "hwdb/rpc_codec.hpp"
#include "telemetry/metrics.hpp"

namespace hw::hwdb::rpc {

/// Opaque client address a transport hands in with each datagram and uses to
/// route responses/pushes back.
using ClientAddress = std::uint64_t;

/// Bounded per-client window of recently answered request ids with their
/// encoded responses. Both RPC endpoints (the hwdb RpcServer here and the
/// live-operations LiveServer) answer a retransmitted request by replaying
/// the cached response instead of re-executing it — that is the whole
/// idempotency contract with RpcClient's retry path.
class DedupCache {
 public:
  explicit DedupCache(std::size_t window) : window_(window) {}

  /// Cached response for (from, request_id), or nullptr when unseen.
  [[nodiscard]] const Bytes* find(ClientAddress from,
                                  std::uint32_t request_id) const;
  /// Remembers a freshly computed response, evicting FIFO past the window.
  void remember(ClientAddress from, std::uint32_t request_id, Bytes response);
  void drop_client(ClientAddress from);

 private:
  struct State {
    std::map<std::uint32_t, Bytes> responses;
    std::deque<std::uint32_t> order;
  };
  std::size_t window_;
  std::map<ClientAddress, State> clients_;
};

class RpcServer {
 public:
  /// `send` transmits a datagram back to a client (responses and pushes).
  using SendFn = std::function<void(ClientAddress, const Bytes&)>;

  RpcServer(Database& db, SendFn send,
            telemetry::MetricRegistry& metrics =
                telemetry::MetricRegistry::current())
      : db_(db), send_(std::move(send)), metrics_(metrics) {}
  ~RpcServer();
  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Processes one request datagram from `from`; sends the response (and
  /// registers push routes for subscribes) through the SendFn.
  void handle_datagram(ClientAddress from, std::span<const std::uint8_t> datagram);

  /// Drops all subscriptions owned by a client (transport saw it vanish).
  void drop_client(ClientAddress addr);

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : requests{reg, "hwdb.rpc_server.requests"},
          errors{reg, "hwdb.rpc_server.errors"},
          pushes{reg, "hwdb.rpc_server.pushes"},
          dup_suppressed{reg, "hwdb.rpc.dup_suppressed"} {}
    telemetry::Counter requests;
    telemetry::Counter errors;
    telemetry::Counter pushes;
    telemetry::Counter dup_suppressed;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

  /// Duplicate-suppression window per client (answered request ids whose
  /// responses are kept for replay).
  static constexpr std::size_t kDedupWindow = 128;

 private:
  Response process(ClientAddress from, const Request& req);

  Database& db_;
  SendFn send_;
  Instruments metrics_;
  /// subscription id → owning client.
  std::map<SubscriptionId, ClientAddress> sub_owner_;
  DedupCache dedup_{kDedupWindow};
};

}  // namespace hw::hwdb::rpc
