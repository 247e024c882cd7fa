// LiveServer: the operator-facing RPC endpoint over a running LiveFleet.
// It speaks the same UDP wire dialect as the hwdb measurement plane
// (hwdb::rpc codec, request-id dedup, retried-call idempotency) so livectl
// and the paper's satellite interfaces need exactly one protocol — but it
// answers the live verbs the hwdb endpoint rejects: SubscribeSeries streams
// telemetry deltas at barrier cadence, Mutate lands control mutations on
// deterministic barriers, and Replay re-executes the run from its last
// checkpoint to prove the time-travel contract on demand.
//
// Streaming model (docs/liveops.md): each subscription samples its matched
// series after every `every`-th barrier from the fleet's per-barrier
// telemetry view (LiveFleet::series). The first frame — and the resync
// frame after backpressure drops — is a full snapshot; later frames carry
// only changed series (absolute values, bit-wise compared by series id, the
// contract of telemetry::scalar_delta). Frames
// queue per subscription, bounded by max_queue with drop-oldest; a drop
// marks the subscription unsynced so the next generated frame is a snapshot
// carrying the accumulated dropped count, and seq stays monotonic so
// clients detect the gap.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "hwdb/rpc_server.hpp"
#include "hwdb/udp_transport.hpp"
#include "live/fleet.hpp"

namespace hw::live {

using hwdb::rpc::ClientAddress;

class LiveServer {
 public:
  using SendFn = hwdb::rpc::RpcServer::SendFn;

  LiveServer(LiveFleet& fleet, SendFn send,
             telemetry::MetricRegistry& metrics =
                 telemetry::MetricRegistry::current());

  /// Processes one operator datagram. Retransmitted requests replay the
  /// cached response (same DedupCache contract as the hwdb RpcServer).
  void handle_datagram(ClientAddress from,
                       std::span<const std::uint8_t> datagram);

  /// One operator-plane tick: advance the fleet a barrier (unless paused),
  /// sample every subscription, flush queued frames. Returns the fleet's
  /// new now().
  Timestamp pump();

  /// Frames sent per pump across all subscriptions (tests shrink this to
  /// force backpressure; default effectively unbounded).
  void set_flush_budget(std::size_t frames) { flush_budget_ = frames; }

  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] std::size_t subscriptions() const { return subs_.size(); }
  void drop_client(ClientAddress addr);

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : requests{reg, "live.server.requests"},
          errors{reg, "live.server.errors"},
          mutations{reg, "live.server.mutations"},
          dup_suppressed{reg, "live.server.dup_suppressed"},
          frames{reg, "live.stream.frames"},
          dropped{reg, "live.stream.dropped"},
          subs{reg, "live.stream.subs"} {}
    telemetry::Counter requests;
    telemetry::Counter errors;
    telemetry::Counter mutations;
    telemetry::Counter dup_suppressed;
    telemetry::Counter frames;
    telemetry::Counter dropped;
    telemetry::Gauge subs;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

  /// True when `name` matches `pattern` (exact, or prefix ending in '*').
  [[nodiscard]] static bool series_matches(const std::string& pattern,
                                           const std::string& name);

 private:
  struct Subscription {
    std::uint64_t id = 0;
    ClientAddress client = 0;
    std::string pattern;
    std::uint32_t home = kAllHomes;
    std::uint32_t every = 1;
    std::size_t max_queue = 64;
    std::uint64_t barriers = 0;       // barriers seen since subscribe
    std::uint64_t next_seq = 1;
    bool synced = false;              // next frame must be a full snapshot
    std::uint64_t dropped_pending = 0;
    /// Per series id: does the pattern match its name (grown as the fleet
    /// interns new series, so each name is matched once).
    std::vector<std::uint8_t> matches;
    LiveFleet::SeriesValues prev;     // base of the next delta, by series id
    std::deque<hwdb::rpc::DeltaPush> queue;
  };

  hwdb::rpc::Response process(ClientAddress from,
                              const hwdb::rpc::Request& req);
  void sample(Subscription& sub);
  void enqueue(Subscription& sub, hwdb::rpc::DeltaPush frame);
  void flush();

  LiveFleet& fleet_;
  SendFn send_;
  std::map<std::uint64_t, Subscription> subs_;
  std::uint64_t next_sub_id_ = 1;
  bool paused_ = false;
  std::uint64_t pending_steps_ = 0;
  std::size_t flush_budget_ = static_cast<std::size_t>(-1);
  hwdb::rpc::DedupCache dedup_{hwdb::rpc::RpcServer::kDedupWindow};

  Instruments metrics_;
};

/// In-process datagram link between a LiveServer and N operator clients,
/// routed through an operator-side event loop (latency + optional datagram
/// mangling in both directions — the retried-subscribe regression runs on
/// this). Drive the loop to the fleet's virtual time after each pump().
class InProcLiveLink {
 public:
  struct Config {
    Duration latency = 200;  // one-way, microseconds
  };

  InProcLiveLink(sim::EventLoop& loop, LiveFleet& fleet, Config config,
                 telemetry::MetricRegistry& metrics =
                     telemetry::MetricRegistry::current());
  InProcLiveLink(sim::EventLoop& loop, LiveFleet& fleet)
      : InProcLiveLink(loop, fleet, Config{}) {}
  ~InProcLiveLink();
  InProcLiveLink(const InProcLiveLink&) = delete;
  InProcLiveLink& operator=(const InProcLiveLink&) = delete;

  /// Creates a reliable client (retries on the operator loop).
  hwdb::rpc::RpcClient& make_client(hwdb::rpc::RetryPolicy policy);

  /// Datagram mangling in both directions (drop/duplicate/delay); pass a
  /// default DatagramFault to clear. `rng` drives the draws.
  void set_fault(const sim::DatagramFault& fault, Rng* rng);

  [[nodiscard]] LiveServer& server() { return *server_; }
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }

 private:
  void transmit(const Bytes& datagram, std::function<void(Bytes)> deliver);

  sim::EventLoop& loop_;
  Config config_;
  telemetry::MetricRegistry& registry_;
  sim::DatagramFault fault_;
  Rng* fault_rng_ = nullptr;
  std::unique_ptr<LiveServer> server_;
  std::vector<std::unique_ptr<hwdb::rpc::RpcClient>> clients_;
};

/// Real-socket UDP front-end for a LiveServer (loopback, port 0 =
/// ephemeral) — livectl's transport. poll() drains pending operator
/// datagrams; pair with LiveServer::pump() in the serve loop.
class LiveUdpServer {
 public:
  LiveUdpServer(LiveFleet& fleet, std::uint16_t port,
                telemetry::MetricRegistry& metrics =
                    telemetry::MetricRegistry::current());
  ~LiveUdpServer();
  LiveUdpServer(const LiveUdpServer&) = delete;
  LiveUdpServer& operator=(const LiveUdpServer&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  std::size_t poll();

  [[nodiscard]] LiveServer& server() { return *server_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<LiveServer> server_;
};

}  // namespace hw::live
