// Deterministic fault injection for the simulated home network. A FaultPlan
// is a declarative script of fault windows — lossy links, a severed
// controller channel, hwdb datagram mangling, a datapath restart — that the
// injector schedules on the event loop. Everything is driven by the plan's
// seed and the simulation clock, so a given (seed, plan) pair replays the
// exact same failure scenario on every run; the chaos suite leans on this to
// diff telemetry snapshots across runs.
//
// The injector stays decoupled from the layers it breaks: links register
// directly (sim owns them), while the OpenFlow channel, hwdb RPC link and
// datapath plug in through std::function hooks so sim never depends on the
// upper layers.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/link.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"

namespace hw::sim {

enum class FaultKind : std::uint8_t {
  LinkLoss,          // raise loss probability on matching links
  LinkPartition,     // loss probability 1.0 — nothing gets through
  ControllerOutage,  // sever the OpenFlow secure channel
  HwdbFault,         // drop / duplicate / delay hwdb RPC datagrams
  DatapathRestart,   // instantaneous: datapath loses all volatile state
  /// Instantaneous: the datapath crashes and comes back restoring its flow
  /// table from the last snapshot (HomeworkRouter::warm_restart).
  CrashRestartRestore,
};

const char* to_string(FaultKind kind);

/// Datagram mangling applied to the hwdb RPC link while a HwdbFault window
/// is open. Probabilities are independent per datagram; extra_delay adds to
/// the link's base latency.
struct DatagramFault {
  double drop = 0.0;
  double duplicate = 0.0;
  Duration extra_delay = 0;
};

/// One scripted fault: [start, start + duration) on the virtual clock.
/// duration 0 marks an instantaneous fault (DatapathRestart).
struct FaultWindow {
  FaultKind kind = FaultKind::LinkLoss;
  Timestamp start = 0;
  Duration duration = 0;
  /// Link-name filter for Link* kinds; "*" hits every registered link.
  std::string target = "*";
  /// Loss probability for LinkLoss (ignored for LinkPartition: always 1.0).
  double loss = 0.5;
  /// Datagram mangling for HwdbFault windows.
  DatagramFault hwdb;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultWindow> windows;
};

class FaultInjector {
 public:
  explicit FaultInjector(EventLoop& loop);
  ~FaultInjector();
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // -- Target registration -----------------------------------------------------
  /// Registers both directions of a device link under `name`. The loss
  /// probability configured at registration time is what window-end restores.
  void add_link(const std::string& name, DuplexLink& link);
  void add_channel(const std::string& name, LinkChannel& channel);

  /// Controller-channel severance hooks (e.g. StreamConnection::disconnect /
  /// reconnect). `restore` runs when the outage window closes.
  void set_controller_channel(std::function<void()> sever,
                              std::function<void()> restore);

  /// hwdb RPC datagram mangling hook (e.g. InProcRpcLink::set_fault). Called
  /// with the window's DatagramFault at start and a neutral fault at end; the
  /// injector's seeded RNG is handed along so chaos draws stay independent
  /// of the scenario's own randomness.
  void set_hwdb_fault(std::function<void(const DatagramFault&, Rng*)> apply);

  /// Datapath cold-restart hook (e.g. ofp::Datapath::restart).
  void set_datapath_restart(std::function<void()> restart);

  /// Crash-restart-with-restore hook (e.g. HomeworkRouter::warm_restart):
  /// the datapath restarts and refills its flow table from the last
  /// snapshot instead of cold-wiping.
  void set_warm_restart(std::function<void()> restart);

  // -- Plan execution ----------------------------------------------------------
  /// Schedules every window of `plan` on the event loop. Re-seeds the
  /// injector RNG from plan.seed first, so arm() is the reproducibility
  /// boundary. May be called once per injector.
  void arm(const FaultPlan& plan);

  /// Schedules one extra window on an already-armed injector without
  /// touching the RNG — the live-operations plane uses this to inject a
  /// fault mid-run while keeping the original plan's draws reproducible.
  /// window.start is an absolute virtual time and must not be in the past.
  void inject(const FaultWindow& window);

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter windows_started{"sim.fault.windows_started"};
    telemetry::Counter windows_ended{"sim.fault.windows_ended"};
    telemetry::Counter link_faults{"sim.fault.link_faults"};
    telemetry::Counter controller_outages{"sim.fault.controller_outages"};
    telemetry::Counter hwdb_faults{"sim.fault.hwdb_faults"};
    telemetry::Counter datapath_restarts{"sim.fault.datapath_restarts"};
    telemetry::Counter crash_restores{"sim.fault.crash_restores"};
    telemetry::Gauge active{"sim.fault.active"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }

 private:
  void begin_window(const FaultWindow& window);
  void end_window(const FaultWindow& window);
  [[nodiscard]] std::vector<LinkChannel*> matching_links(
      const std::string& target);

  EventLoop& loop_;
  Rng rng_;
  bool armed_ = false;
  /// Registered channels with the loss probability to restore at window end.
  struct RegisteredChannel {
    LinkChannel* channel = nullptr;
    double base_loss = 0.0;
  };
  std::multimap<std::string, RegisteredChannel> links_;
  std::function<void()> sever_controller_;
  std::function<void()> restore_controller_;
  std::function<void(const DatagramFault&, Rng*)> apply_hwdb_fault_;
  std::function<void()> restart_datapath_;
  std::function<void()> warm_restart_;
  std::vector<EventLoop::EventId> scheduled_;
  Instruments metrics_;
};

}  // namespace hw::sim
