// Compiles policy documents into the per-device restriction set the router
// enforces: "This is mapped to per-device network and DNS access
// restrictions" (paper §1).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "policy/policy.hpp"
#include "util/addr.hpp"

namespace hw::policy {

/// The effective restriction for one device at one instant.
struct DeviceRestriction {
  bool network_blocked = false;
  /// Tightest bandwidth cap among active policies (0 = uncapped).
  std::uint64_t rate_limit_bps = 0;
  /// When true, only `allowed_domains` resolve; otherwise everything except
  /// `blocked_domains` resolves.
  bool allow_only = false;
  std::vector<std::string> allowed_domains;
  std::vector<std::string> blocked_domains;
  /// Policy ids that contributed (for UI display / debugging).
  std::vector<std::string> sources;

  [[nodiscard]] bool unrestricted() const {
    return !network_blocked && !allow_only && blocked_domains.empty() &&
           rate_limit_bps == 0;
  }
  /// May this device resolve/contact `domain`?
  [[nodiscard]] bool domain_allowed(const std::string& domain) const;
};

/// Evaluation inputs that change over time.
struct EvalContext {
  Timestamp now = 0;
  int epoch_weekday = 1;  // simulation epoch is a Monday by default
  /// Unlock tokens present on currently inserted USB keys.
  std::vector<std::string> inserted_tokens;
};

/// Computes the effective restriction of `mac` (with `tags`) under a policy
/// set. Multiple matching policies compose: network blocks OR together;
/// allow-only lists intersect semantics are approximated by unioning
/// allow-lists and switching to allow-only if any active policy demands it.
DeviceRestriction compile_restriction(const std::vector<PolicyDocument>& policies,
                                      const std::string& mac,
                                      const std::vector<std::string>& tags,
                                      const EvalContext& ctx);
/// Pointer-set overload (the PolicyEngine's view of its installed set).
DeviceRestriction compile_restriction(
    const std::vector<const PolicyDocument*>& policies, const std::string& mac,
    const std::vector<std::string>& tags, const EvalContext& ctx);
/// Folds one policy into `r` — the step compile_restriction repeats per
/// policy, for callers that walk their own policy container in place.
void fold_policy(const PolicyDocument& p, const std::string& mac,
                 const std::vector<std::string>& tags, const EvalContext& ctx,
                 DeviceRestriction& r);

/// True if `p` is currently suspended by an inserted unlock token.
bool policy_unlocked(const PolicyDocument& p, const EvalContext& ctx);

// ---------------------------------------------------------------------------
// Lowering stage: rule documents → imperative desired-state statements.
//
// The reconciler feeds the home's device population in, and each statement
// comes back as something it can turn directly into a desired-state entry —
// a drop-flow pair for a network block, a QoS intent for a rate cap. DNS
// restrictions stay in the DNS proxy's verdict path (they gate lookups, not
// flows) and are deliberately not lowered.

/// One device as the lowering pass sees it.
struct LoweredDevice {
  std::string mac;
  std::vector<std::string> tags;
  /// Leased address, when bound — needed to materialize drop flows.
  std::optional<Ipv4Address> ip;
};

/// One imperative statement compiled from the active policy set.
struct LoweredStatement {
  enum class Verb : std::uint8_t { BlockNetwork, RateLimit };
  Verb verb = Verb::BlockNetwork;
  std::string mac;
  std::optional<Ipv4Address> ip;       // set when the device holds a lease
  std::uint64_t rate_bps = 0;          // RateLimit only
  std::vector<std::string> sources;    // contributing policy ids
};

/// Lowers the active policy set over a device population into statements,
/// in deterministic (mac-sorted) order.
std::vector<LoweredStatement> lower_policies(
    const std::vector<const PolicyDocument*>& policies,
    std::vector<LoweredDevice> devices, const EvalContext& ctx);

}  // namespace hw::policy
