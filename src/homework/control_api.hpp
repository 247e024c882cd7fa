// The control API NOX module: "a simple RESTful web interface to the router,
// invoked to exercise control over connected devices: by the Linux udev
// subsystem when a suitably formatted USB storage device is inserted; and
// directly by the various graphical control interfaces." (paper §2)
//
// Routes:
//   GET    /api/status                       — router summary
//   GET    /api/devices                      — all devices + state + lease
//   GET    /api/devices/:mac                 — one device
//   GET    /api/devices/:mac/interrogate     — Figure 3 "interrogate": live
//            traffic summary, resolved names, link quality from hwdb
//   POST   /api/devices/:mac/permit          — Figure 3 drag to "permitted"
//   POST   /api/devices/:mac/deny            — Figure 3 drag to "denied"
//   PUT    /api/devices/:mac/metadata        — {"name": "...", "tags": [...]}
//   GET    /api/leases                       — active leases
//   GET    /api/policies                     — installed policy documents
//   POST   /api/policies                     — install policy JSON
//   DELETE /api/policies/:id                 — remove policy
//   POST   /api/usb/insert                   — udev hook: key image JSON
//   POST   /api/usb/remove/:slot             — udev hook: key removed
//   GET    /api/query?q=<CQL>                — hwdb passthrough (read-only)
#pragma once

#include "homework/device_registry.hpp"
#include "homework/http.hpp"
#include "hwdb/database.hpp"
#include "nox/component.hpp"
#include "nox/controller.hpp"
#include "policy/engine.hpp"
#include "reconcile/desired_state.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {

class ControlApi final : public nox::Component {
 public:
  static constexpr const char* kName = "control-api";

  ControlApi(DeviceRegistry& registry, policy::PolicyEngine& policy,
             hwdb::Database& db);

  void install(nox::Controller& ctl) override;

  /// Binds the goal-state store: admission decisions and device metadata
  /// writes then mutate the device's DeviceIntent alongside the registry
  /// (the registry write stays immediate; the intent makes it durable and
  /// reconcilable). `changed` fires with the device's dpid after each write
  /// so the caller can schedule a reconcile round.
  void bind_goal_state(reconcile::DesiredStore& store,
                       std::function<void(nox::DatapathId)> changed);

  /// Serves one HTTP request (the in-home interfaces and tests call this;
  /// a socket front-end would parse/serialize around it).
  HttpResponse handle(const HttpRequest& req);
  /// Convenience: parse a raw HTTP/1.1 request text, serve, serialize.
  std::string handle_raw(std::string_view request_text);

  /// The module's telemetry instruments, read in place (`.value()`).
  struct Instruments {
    telemetry::Counter requests{"homework.control_api.requests"};
    telemetry::Counter errors{"homework.control_api.errors"};
    telemetry::Counter permits{"homework.control_api.permits"};
    telemetry::Counter denies{"homework.control_api.denies"};
    telemetry::Counter usb_inserts{"homework.control_api.usb_inserts"};
    telemetry::Counter usb_removes{"homework.control_api.usb_removes"};
  };
  [[nodiscard]] const Instruments& stats() const { return metrics_; }
  [[nodiscard]] const HttpRouter& router() const { return router_; }

 private:
  void setup_routes();
  [[nodiscard]] Json device_json(const DeviceRecord& rec) const;

  DeviceRegistry& registry_;
  policy::PolicyEngine& policy_;
  hwdb::Database& db_;
  reconcile::DesiredStore* desired_ = nullptr;
  std::function<void(nox::DatapathId)> desired_changed_;
  HttpRouter router_;
  Instruments metrics_;
  /// USB slot handles returned by /api/usb/insert.
  std::map<std::uint32_t, policy::UsbMonitor::SlotId> usb_slots_;
  std::uint32_t next_usb_handle_ = 1;
};

}  // namespace hw::homework
