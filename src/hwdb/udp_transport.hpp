// Transports binding RpcServer/RpcClient together.
//
// InProcRpcLink routes datagrams through the simulation event loop (with a
// configurable latency and loss model, since UDP gives no guarantees).
// UdpServerTransport/UdpClientTransport use real AF_INET sockets on
// loopback, preserving the paper's deployment shape; they are poll-driven so
// tests can pump them without threads.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "hwdb/rpc_client.hpp"
#include "hwdb/rpc_server.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault_injector.hpp"
#include "util/rand.hpp"

namespace hw::hwdb::rpc {

/// In-process datagram link between one server and N clients.
class InProcRpcLink {
 public:
  struct Config {
    Duration latency = 200;  // one-way, microseconds
    double loss_probability = 0.0;
  };

  /// `metrics` scopes the link's instruments and those of the server and
  /// every client it creates; defaults to the thread's active registry.
  InProcRpcLink(sim::EventLoop& loop, Database& db, Config config,
                Rng* rng = nullptr,
                telemetry::MetricRegistry& metrics =
                    telemetry::MetricRegistry::current());
  InProcRpcLink(sim::EventLoop& loop, Database& db)
      : InProcRpcLink(loop, db, Config{}) {}
  ~InProcRpcLink();

  /// Creates a fire-and-forget client attached to the link.
  RpcClient& make_client();
  /// Creates a client whose calls are retried on the link's event loop.
  RpcClient& make_client(RetryPolicy policy);

  /// Chaos hook (sim::FaultInjector::set_hwdb_fault): mangles datagrams in
  /// both directions while active. Pass a default DatagramFault to clear.
  void set_fault(const sim::DatagramFault& fault, Rng* rng);

  [[nodiscard]] RpcServer& server() { return *server_; }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : fault_dropped{reg, "hwdb.rpc_link.fault_dropped"},
          fault_duplicated{reg, "hwdb.rpc_link.fault_duplicated"},
          fault_delayed{reg, "hwdb.rpc_link.fault_delayed"} {}
    telemetry::Counter fault_dropped;
    telemetry::Counter fault_duplicated;
    telemetry::Counter fault_delayed;
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

 private:
  /// Applies loss + the fault filter, then schedules `deliver` for every
  /// surviving copy of the datagram.
  void transmit(const Bytes& datagram, std::function<void(Bytes)> deliver);

  sim::EventLoop& loop_;
  Config config_;
  Rng* rng_;
  telemetry::MetricRegistry& registry_;  // handed to created clients
  sim::DatagramFault fault_;
  Rng* fault_rng_ = nullptr;
  std::unique_ptr<RpcServer> server_;
  std::vector<std::unique_ptr<RpcClient>> clients_;
  Instruments metrics_;
};

/// Real-socket UDP server. Bind to 127.0.0.1:port (0 = ephemeral); call
/// poll() to drain pending datagrams.
class UdpServerTransport {
 public:
  UdpServerTransport(Database& db, std::uint16_t port,
                     telemetry::MetricRegistry& metrics =
                         telemetry::MetricRegistry::current());
  ~UdpServerTransport();
  UdpServerTransport(const UdpServerTransport&) = delete;
  UdpServerTransport& operator=(const UdpServerTransport&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Processes all currently queued datagrams; returns how many.
  std::size_t poll();

  [[nodiscard]] RpcServer& server() { return *server_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<RpcServer> server_;
};

/// Real-socket UDP client talking to a UdpServerTransport. Optionally bound
/// to a simulation EventLoop: wait() then drains already-due events before
/// blocking, but never advances virtual time.
class UdpClientTransport {
 public:
  explicit UdpClientTransport(std::uint16_t server_port,
                              sim::EventLoop* loop = nullptr,
                              telemetry::MetricRegistry& metrics =
                                  telemetry::MetricRegistry::current());
  ~UdpClientTransport();
  UdpClientTransport(const UdpClientTransport&) = delete;
  UdpClientTransport& operator=(const UdpClientTransport&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  /// Processes queued datagrams from the server; returns how many.
  std::size_t poll();
  /// Blocks until a datagram arrives or `timeout_ms` elapses — one
  /// event-driven ::poll on the socket for the whole budget, never a
  /// busy-poll loop. A timed-out wait consumes zero simulation events and
  /// leaves the virtual clock untouched (events already due when wait() is
  /// entered are drained first so sim-scheduled sends are not starved).
  bool wait(int timeout_ms);

  [[nodiscard]] RpcClient& client() { return *client_; }

 private:
  int fd_ = -1;
  sim::EventLoop* loop_ = nullptr;
  std::unique_ptr<RpcClient> client_;
};

}  // namespace hw::hwdb::rpc
