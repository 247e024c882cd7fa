// PolicyEngine: the live policy state of the router. Owns installed policy
// documents (from the control API and from inserted USB keys), the USB
// monitor, and per-device tags; answers the two questions the enforcement
// path asks — "may this device use the network now?" and "may this device
// talk to this domain now?" — and notifies listeners when any answer may
// have changed so flows/DNS state can be re-evaluated.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "policy/compiler.hpp"
#include "policy/usb.hpp"
#include "snapshot/snapshottable.hpp"

namespace hw::policy {

class PolicyEngine final : public snapshot::Snapshottable {
 public:
  /// `now_fn` supplies virtual time for schedule evaluation.
  explicit PolicyEngine(std::function<Timestamp()> now_fn);

  // -- Policy management -------------------------------------------------------
  /// Installs or replaces (by id) a persistent policy.
  void install(PolicyDocument doc);
  /// Removes a persistent policy; false if unknown.
  bool uninstall(const std::string& id);
  [[nodiscard]] std::vector<const PolicyDocument*> policies() const;

  // -- Device tags ("the kids") ----------------------------------------------
  // Tags come in two buckets: global (single-home compat, applied in every
  // home) and per-datapath (a shared controller serving many homes tags each
  // home's devices independently). Queries merge both.
  void set_tags(const std::string& mac, std::vector<std::string> tags);
  void set_tags(std::uint64_t dpid, const std::string& mac,
                std::vector<std::string> tags);
  [[nodiscard]] std::vector<std::string> tags_of(const std::string& mac) const;
  [[nodiscard]] std::vector<std::string> tags_of(std::uint64_t dpid,
                                                 const std::string& mac) const;

  // -- USB mediation ------------------------------------------------------------
  [[nodiscard]] UsbMonitor& usb() { return usb_; }

  // -- Enforcement queries ------------------------------------------------------
  [[nodiscard]] DeviceRestriction restriction_for(const std::string& mac) const;
  /// The per-home form the enforcement path asks: the address is rendered
  /// as text only when an installed policy has to be checked against it.
  [[nodiscard]] DeviceRestriction restriction_for(std::uint64_t dpid,
                                                  MacAddress mac) const;
  [[nodiscard]] bool network_allowed(const std::string& mac) const {
    return !restriction_for(mac).network_blocked;
  }
  [[nodiscard]] bool network_allowed(std::uint64_t dpid, MacAddress mac) const {
    return !restriction_for(dpid, mac).network_blocked;
  }
  [[nodiscard]] bool domain_allowed(const std::string& mac,
                                    const std::string& domain) const {
    const auto r = restriction_for(mac);
    return !r.network_blocked && r.domain_allowed(domain);
  }
  [[nodiscard]] bool domain_allowed(std::uint64_t dpid, MacAddress mac,
                                    const std::string& domain) const {
    const auto r = restriction_for(dpid, mac);
    return !r.network_blocked && r.domain_allowed(domain);
  }

  /// Fired whenever policy state changed (install/uninstall/usb/tags): the
  /// enforcement layer revokes cached flows and DNS verdicts, and the
  /// reconciler recompiles desired state. Listeners accumulate and run in
  /// registration order.
  void on_change(std::function<void()> fn) {
    on_change_.push_back(std::move(fn));
  }

  /// The current evaluation inputs (virtual time, weekday, inserted unlock
  /// tokens) — what the lowering pass needs alongside policies().
  [[nodiscard]] EvalContext eval_context() const { return context(); }

  [[nodiscard]] int epoch_weekday() const { return epoch_weekday_; }
  void set_epoch_weekday(int weekday) { epoch_weekday_ = weekday; }

  // -- Snapshottable ('PLCY' chunk) -------------------------------------------
  // Captures installed documents (as their JSON form), key-slot bindings,
  // device tags and the epoch weekday. Restore is silent: the on_change
  // listener is NOT fired — the restoring home re-evaluates enforcement
  // through its own warm-restart path.
  void save(snapshot::Writer& w) const override;
  Status restore(const snapshot::Reader& r) override;

 private:
  void notify() {
    for (const auto& fn : on_change_) fn();
  }
  [[nodiscard]] EvalContext context() const;
  /// Folds every installed policy, in place, for one lower-case address.
  [[nodiscard]] DeviceRestriction fold_installed(
      const std::string& mac, const std::vector<std::string>& tags) const;

  std::function<Timestamp()> now_fn_;
  std::map<std::string, PolicyDocument> installed_;
  /// Policies installed by an inserted key, keyed by slot (removed with it).
  std::map<UsbMonitor::SlotId, std::vector<std::string>> key_policies_;
  std::map<std::string, std::vector<std::string>> tags_;  // global bucket
  std::map<std::uint64_t, std::map<std::string, std::vector<std::string>>>
      dpid_tags_;
  UsbMonitor usb_;
  std::vector<std::function<void()>> on_change_;
  int epoch_weekday_ = 1;  // Monday
};

}  // namespace hw::policy
