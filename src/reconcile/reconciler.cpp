#include "reconcile/reconciler.hpp"

#include <set>
#include <utility>
#include <variant>

#include "nox/controller.hpp"

namespace hw::reconcile {

namespace {

constexpr std::uint16_t kPolicyBlockPriority = 0x9100;
constexpr std::uint16_t kIpEthertype = 0x0800;

/// Collects component flow contributions straight into a DesiredState.
class StateSink final : public nox::FlowIntentSink {
 public:
  explicit StateSink(DesiredState& state) : state_(state) {}
  void add(nox::FlowIntent intent) override {
    DesiredFlow f;
    f.key = std::move(intent.key);
    f.match = intent.match;
    f.priority = intent.priority;
    f.actions = std::move(intent.actions);
    f.idle_timeout = intent.idle_timeout;
    f.hard_timeout = intent.hard_timeout;
    f.flags = intent.flags;
    state_.put_flow(std::move(f));
  }

 private:
  DesiredState& state_;
};

}  // namespace

std::vector<DesiredFlow> compile_block_flows(const policy::LoweredStatement& s) {
  std::vector<DesiredFlow> out;
  DesiredFlow src;
  src.key = "policy:block:src:" + s.mac;
  src.priority = kPolicyBlockPriority;
  src.actions = ofp::drop();
  DesiredFlow dst;
  dst.key = "policy:block:dst:" + s.mac;
  dst.priority = kPolicyBlockPriority;
  dst.actions = ofp::drop();
  if (s.ip) {
    // Leased device: drop its IP traffic in both directions.
    src.match = ofp::Match::any().with_dl_type(kIpEthertype).with_nw_src(*s.ip);
    dst.match = ofp::Match::any().with_dl_type(kIpEthertype).with_nw_dst(*s.ip);
  } else {
    // No lease yet: fall back to MAC-level drops.
    auto mac = MacAddress::parse(s.mac);
    if (!mac) return out;
    src.match = ofp::Match::any().with_dl_src(mac.value());
    dst.match = ofp::Match::any().with_dl_dst(mac.value());
  }
  out.push_back(std::move(src));
  out.push_back(std::move(dst));
  return out;
}

Reconciler::Reconciler(DesiredStore& store, telemetry::MetricRegistry& metrics)
    : Component(kName), store_(store), metrics_(metrics) {}

void Reconciler::bind_policy(policy::PolicyEngine& engine) {
  policy_ = &engine;
  engine.on_change([this] {
    if (!installed_) return;
    for (const nox::DatapathId dpid : controller().datapaths()) {
      request_round(dpid);
    }
  });
}

void Reconciler::install(nox::Controller& ctl) {
  Component::install(ctl);
  installed_ = true;
}

void Reconciler::request_round(nox::DatapathId dpid, bool resync) {
  PerDatapath& dp = per_dp_[dpid];
  if (resync) {
    // Abandon any in-flight round outright: its stats/barrier replies were
    // likely lost across the outage that triggered this resync, and waiting
    // for them would wedge the round forever.
    ++dp.generation;
    dp.in_flight = false;
    dp.dirty = false;
    dp.dirty_resync = false;
    dp.resync_origin = true;
  }
  if (dp.in_flight) {
    dp.dirty = true;
    return;
  }
  if (!installed_ || !controller().datapath_connected(dpid)) return;
  start_round(dpid, dp);
}

void Reconciler::start_round(nox::DatapathId dpid, PerDatapath& dp) {
  dp.in_flight = true;
  dp.started = std::chrono::steady_clock::now();
  metrics_.rounds.inc();
  dp.report = RoundReport{};
  dp.report.round = metrics_.rounds.value();
  rebuild_desired(dpid);
  apply_state_fixups(dpid, dp.report);
  const std::uint64_t gen = dp.generation;
  ofp::StatsRequest req;
  req.type = ofp::StatsType::Flow;
  req.body = ofp::FlowStatsRequest{};
  controller().request_stats(
      dpid, req, [this, dpid, gen](const ofp::StatsReply& reply) {
        const auto* entries =
            std::get_if<std::vector<ofp::FlowStatsEntry>>(&reply.body);
        const std::vector<ofp::FlowStatsEntry> empty;
        on_stats(dpid, gen, entries != nullptr ? *entries : empty);
      });
}

void Reconciler::rebuild_desired(nox::DatapathId dpid) {
  DesiredState& want = store_.state(dpid);
  want.flows.clear();
  StateSink sink(want);
  controller().collect_flow_intents(dpid, sink);

  // Rate caps are re-lowered from scratch each round so a lapsed policy
  // (schedule window closed, key removed) tears its cap down.
  for (auto& [mac, intent] : want.devices) intent.rate_limit_bps = 0;
  if (policy_ == nullptr) return;

  std::vector<policy::LoweredDevice> devices;
  devices.reserve(want.devices.size());
  for (const auto& [mac, intent] : want.devices) {
    policy::LoweredDevice dev;
    dev.mac = mac;
    std::set<std::string> tags(intent.tags.begin(), intent.tags.end());
    if (auto parsed = MacAddress::parse(mac)) {
      const auto& tagged = policy_->tags_of(dpid, parsed.value());
      tags.insert(tagged.begin(), tagged.end());
    }
    dev.tags.assign(tags.begin(), tags.end());
    dev.ip = intent.lease_ip;
    devices.push_back(std::move(dev));
  }
  const auto statements = policy::lower_policies(
      policy_->policies(), std::move(devices), policy_->eval_context());
  for (const auto& s : statements) {
    switch (s.verb) {
      case policy::LoweredStatement::Verb::BlockNetwork:
        for (DesiredFlow& f : compile_block_flows(s)) {
          want.put_flow(std::move(f));
        }
        break;
      case policy::LoweredStatement::Verb::RateLimit:
        want.devices[s.mac].rate_limit_bps = s.rate_bps;
        break;
    }
  }
}

void Reconciler::apply_state_fixups(nox::DatapathId dpid, RoundReport& report) {
  const DesiredState* want = store_.find(dpid);
  if (want == nullptr) return;
  for (const auto& [mac, intent] : want->devices) {
    if (intent.admission != DeviceIntent::Admission::Unspecified &&
        hooks_.apply_admission &&
        hooks_.apply_admission(dpid, mac, intent.admission)) {
      ++report.registry_fixups;
      metrics_.registry_fixups.inc();
    }
    if (intent.lease_ip && hooks_.adopt_lease &&
        hooks_.adopt_lease(dpid, mac, *intent.lease_ip)) {
      ++report.lease_fixups;
      metrics_.lease_fixups.inc();
    }
    if (hooks_.apply_qos &&
        hooks_.apply_qos(dpid, mac, intent.rate_limit_bps)) {
      ++report.qos_applied;
      metrics_.qos_applied.inc();
    }
  }
}

void Reconciler::on_stats(nox::DatapathId dpid, std::uint64_t generation,
                          const std::vector<ofp::FlowStatsEntry>& entries) {
  auto it = per_dp_.find(dpid);
  if (it == per_dp_.end()) return;
  PerDatapath& dp = it->second;
  if (!dp.in_flight || generation != dp.generation) return;

  dp.actual.refresh(entries);
  const DesiredState& want = store_.state(dpid);
  const FlowDelta delta = compute_flow_delta(want, dp.actual.flows());

  dp.report.added = delta.add.size();
  dp.report.modified = delta.modify.size();
  dp.report.deleted = delta.del.size();
  dp.report.noop = delta.noop;
  metrics_.deltas_added.inc(delta.add.size());
  metrics_.deltas_modified.inc(delta.modify.size());
  metrics_.deltas_deleted.inc(delta.del.size());
  metrics_.deltas_noop.inc(delta.noop);

  if (delta.empty()) {
    dp.report.converged = true;
    metrics_.converged_rounds.inc();
    finish_round(dpid, generation);
    return;
  }

  for (const Deletion& d : delta.del) {
    ofp::FlowMod mod;
    mod.command = ofp::FlowModCommand::DeleteStrict;
    mod.match = d.match;
    mod.priority = d.priority;
    controller().send_flow_mod(dpid, mod);
  }
  auto send = [&](const DesiredFlow& f, ofp::FlowModCommand cmd) {
    ofp::FlowMod mod;
    mod.command = cmd;
    mod.match = f.match;
    mod.priority = f.priority;
    mod.cookie = f.cookie();
    mod.idle_timeout = f.idle_timeout;
    mod.hard_timeout = f.hard_timeout;
    mod.flags = f.flags;
    mod.actions = f.actions;
    controller().send_flow_mod(dpid, mod);
  };
  for (const DesiredFlow& f : delta.modify) {
    send(f, ofp::FlowModCommand::ModifyStrict);
  }
  for (const DesiredFlow& f : delta.add) send(f, ofp::FlowModCommand::Add);
  dp.actual.apply(delta);

  controller().send_barrier(dpid,
                            [this, dpid, generation] {
                              finish_round(dpid, generation);
                            });
}

void Reconciler::finish_round(nox::DatapathId dpid, std::uint64_t generation) {
  auto it = per_dp_.find(dpid);
  if (it == per_dp_.end()) return;
  PerDatapath& dp = it->second;
  if (!dp.in_flight || generation != dp.generation) return;
  dp.in_flight = false;
  const auto elapsed = std::chrono::steady_clock::now() - dp.started;
  metrics_.round_ns.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  dp.last = dp.report;
  dp.has_last = true;
  if (dp.resync_origin) {
    dp.resync_origin = false;
    controller().confirm_resync(dpid, dp.report.added + dp.report.modified);
  }
  if (dp.dirty) {
    dp.dirty = false;
    const bool resync = dp.dirty_resync;
    dp.dirty_resync = false;
    request_round(dpid, resync);
  }
}

bool Reconciler::verify_converged(nox::DatapathId dpid,
                                  const ofp::FlowTable& table) {
  rebuild_desired(dpid);
  std::vector<ActualFlow> rows;
  table.for_each([&](const ofp::FlowEntry& e) {
    rows.push_back({e.match, e.priority, e.cookie, e.actions, e.idle_timeout,
                    e.hard_timeout});
  });
  return compute_flow_delta(store_.state(dpid), rows).empty();
}

const RoundReport* Reconciler::last_report(nox::DatapathId dpid) const {
  auto it = per_dp_.find(dpid);
  if (it == per_dp_.end() || !it->second.has_last) return nullptr;
  return &it->second.last;
}

void Reconciler::handle_datapath_leave(nox::DatapathId dpid) {
  auto it = per_dp_.find(dpid);
  if (it == per_dp_.end()) return;
  ++it->second.generation;
  it->second.in_flight = false;
  it->second.actual.invalidate();
}

void Reconciler::handle_flow_removed(nox::DatapathId dpid,
                                     const ofp::FlowRemoved& fr) {
  auto it = per_dp_.find(dpid);
  if (it != per_dp_.end()) {
    it->second.actual.note_flow_removed(fr.match, fr.priority);
  }
  // Losing one of our own rows (idle/hard timeout, eviction) is divergence:
  // schedule a round to re-install it.
  if (nox::is_desired_cookie(fr.cookie)) request_round(dpid);
}

}  // namespace hw::reconcile
