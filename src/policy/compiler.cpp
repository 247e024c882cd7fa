#include "policy/compiler.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace hw::policy {

bool DeviceRestriction::domain_allowed(const std::string& domain) const {
  if (allow_only) {
    return std::any_of(allowed_domains.begin(), allowed_domains.end(),
                       [&](const std::string& pattern) {
                         return domain_matches(domain, pattern);
                       });
  }
  return std::none_of(blocked_domains.begin(), blocked_domains.end(),
                      [&](const std::string& pattern) {
                        return domain_matches(domain, pattern);
                      });
}

bool policy_unlocked(const PolicyDocument& p, const EvalContext& ctx) {
  if (p.unlock == UnlockEffect::None) return false;
  return std::any_of(ctx.inserted_tokens.begin(), ctx.inserted_tokens.end(),
                     [&](const std::string& t) { return t == p.unlock_token; });
}

void fold_policy(const PolicyDocument& p, const std::string& mac,
                 const std::vector<std::string>& tags, const EvalContext& ctx,
                 DeviceRestriction& r) {
  if (!p.who.selects(mac, tags)) return;
  if (!p.when.active_at(ctx.now, ctx.epoch_weekday)) return;
  const bool unlocked = policy_unlocked(p, ctx);
  if (unlocked && p.unlock == UnlockEffect::LiftAll) return;

  r.sources.push_back(p.id);
  if (p.block_network) r.network_blocked = true;
  if (p.rate_limit_bps > 0 &&
      (r.rate_limit_bps == 0 || p.rate_limit_bps < r.rate_limit_bps)) {
    r.rate_limit_bps = p.rate_limit_bps;
  }

  const bool sites_lifted = unlocked && p.unlock == UnlockEffect::LiftSiteRule;
  if (sites_lifted || p.sites.domains.empty()) return;

  if (p.sites.kind == SiteRuleKind::AllowOnly) {
    r.allow_only = true;
    r.allowed_domains.insert(r.allowed_domains.end(), p.sites.domains.begin(),
                             p.sites.domains.end());
  } else {
    r.blocked_domains.insert(r.blocked_domains.end(), p.sites.domains.begin(),
                             p.sites.domains.end());
  }
}

DeviceRestriction compile_restriction(const std::vector<PolicyDocument>& policies,
                                      const std::string& mac,
                                      const std::vector<std::string>& tags,
                                      const EvalContext& ctx) {
  DeviceRestriction r;
  for (const auto& p : policies) fold_policy(p, mac, tags, ctx, r);
  return r;
}

DeviceRestriction compile_restriction(
    const std::vector<const PolicyDocument*>& policies, const std::string& mac,
    const std::vector<std::string>& tags, const EvalContext& ctx) {
  DeviceRestriction r;
  for (const PolicyDocument* p : policies) fold_policy(*p, mac, tags, ctx, r);
  return r;
}

std::vector<LoweredStatement> lower_policies(
    const std::vector<const PolicyDocument*>& policies,
    std::vector<LoweredDevice> devices, const EvalContext& ctx) {
  std::sort(devices.begin(), devices.end(),
            [](const LoweredDevice& a, const LoweredDevice& b) {
              return a.mac < b.mac;
            });
  std::vector<LoweredStatement> out;
  for (const LoweredDevice& dev : devices) {
    const DeviceRestriction r =
        compile_restriction(policies, dev.mac, dev.tags, ctx);
    if (r.network_blocked) {
      LoweredStatement s;
      s.verb = LoweredStatement::Verb::BlockNetwork;
      s.mac = dev.mac;
      s.ip = dev.ip;
      s.sources = r.sources;
      out.push_back(std::move(s));
    }
    if (r.rate_limit_bps > 0) {
      LoweredStatement s;
      s.verb = LoweredStatement::Verb::RateLimit;
      s.mac = dev.mac;
      s.ip = dev.ip;
      s.rate_bps = r.rate_limit_bps;
      s.sources = r.sources;
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace hw::policy
