// Client-side RPC stub: request/response correlation plus push dispatch.
// Transport-independent; pair with InProcRpcLink (simulation) or
// UdpTransport (real sockets).
//
// The transport is plain UDP (paper §2), so the client owns reliability:
// every call carries a request id, and — when constructed with an event
// loop and a RetryPolicy — a per-call timeout with bounded exponential
// backoff resends. Retried writes stay idempotent because the server
// suppresses duplicate request ids (see RpcServer); the client just has to
// reuse the id on every resend, which it does by retransmitting the
// original encoded datagram verbatim.
#pragma once

#include <functional>
#include <map>

#include "hwdb/rpc_codec.hpp"
#include "sim/event_loop.hpp"
#include "telemetry/metrics.hpp"

namespace hw::hwdb::rpc {

/// Retry schedule for calls over a lossy transport. Attempt n (0-based) is
/// given `timeout + retry_backoff(n)` to complete before the next resend;
/// after `max_attempts` sends the call fails with an error response. The
/// schedule is purely deterministic (no jitter) so chaos runs replay
/// byte-identically.
struct RetryPolicy {
  int max_attempts = 1;  // total transmissions; 1 = fire once, never retry
  Duration timeout = 250 * kMillisecond;        // per-attempt response budget
  Duration backoff_base = 100 * kMillisecond;   // doubles per retry
  Duration backoff_cap = 2 * kSecond;           // backoff growth ceiling

  /// Extra delay added to the n-th retry's timeout (n = 0 for the first
  /// retry): min(cap, base << n). Exposed so the property suite can check
  /// the schedule is monotone and bounded without driving a transport.
  [[nodiscard]] Duration retry_backoff(int retry_index) const;
  /// Full inter-send delay sequence for a call: entry n is how long the
  /// client waits after send n before resending (or failing).
  [[nodiscard]] std::vector<Duration> schedule() const;
};

class RpcClient {
 public:
  using SendFn = std::function<void(const Bytes&)>;
  using ResponseCallback = std::function<void(const Response&)>;
  using PushCallback = std::function<void(std::uint64_t sub_id, const ResultSet&)>;
  using DeltaCallback = std::function<void(const DeltaPush&)>;

  /// Fire-and-forget client: no timeouts, no retries (legacy behaviour).
  explicit RpcClient(SendFn send, telemetry::MetricRegistry& metrics =
                                      telemetry::MetricRegistry::current())
      : send_(std::move(send)), metrics_(metrics) {}
  /// Reliable client: unanswered calls are retried on `loop` per `policy`.
  RpcClient(SendFn send, sim::EventLoop& loop, RetryPolicy policy,
            telemetry::MetricRegistry& metrics =
                telemetry::MetricRegistry::current())
      : send_(std::move(send)), loop_(&loop), policy_(policy),
        metrics_(metrics) {}
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Sends a request; `cb` fires when the matching response arrives, or —
  /// with retries enabled — with an error response after the last attempt
  /// times out.
  void call(RequestBody body, ResponseCallback cb);

  /// Push handler for subscription publishes.
  void on_push(PushCallback cb) { push_ = std::move(cb); }
  /// Push handler for live telemetry delta frames (LiveServer streams).
  void on_delta(DeltaCallback cb) { delta_ = std::move(cb); }

  /// Feed a datagram received from the server.
  void handle_datagram(std::span<const std::uint8_t> datagram);

  // Convenience wrappers.
  void insert(std::string table, std::vector<Value> values,
              ResponseCallback cb = {});
  void query(std::string cql, std::function<void(Result<ResultSet>)> cb);
  void subscribe(std::string cql, bool on_insert, std::uint32_t period_ms,
                 std::function<void(Result<std::uint64_t>)> cb);
  void unsubscribe(std::uint64_t sub_id);

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : retries{reg, "hwdb.rpc.retries"},
          timeouts{reg, "hwdb.rpc.timeouts"} {}
    telemetry::Counter retries;
    telemetry::Counter timeouts;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

 private:
  struct PendingCall {
    Bytes datagram;  // resent verbatim so the request id is stable
    ResponseCallback cb;
    int attempts = 1;  // transmissions so far
    sim::EventLoop::EventId timer = 0;
  };

  void arm_timer(std::uint32_t request_id);
  void handle_timeout(std::uint32_t request_id);

  SendFn send_;
  PushCallback push_;
  DeltaCallback delta_;
  sim::EventLoop* loop_ = nullptr;
  RetryPolicy policy_;
  std::map<std::uint32_t, PendingCall> pending_;
  std::uint32_t next_request_id_ = 1;
  Instruments metrics_;
};

}  // namespace hw::hwdb::rpc
