#include "nox/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace hw::nox {
namespace {
constexpr std::string_view kLog = "nox";
/// Capacity the reused encode buffer keeps between messages: room for any
/// FlowMod or a PacketOut carrying a full frame.
constexpr std::size_t kKeepTxBytes = 4096;
}  // namespace

Controller::Controller(sim::EventLoop& loop, telemetry::MetricRegistry& metrics)
    : loop_(loop), metrics_(metrics) {}
Controller::~Controller() = default;

void Controller::add_component(std::unique_ptr<Component> component) {
  components_.push_back(std::move(component));
}

Component* Controller::component(const std::string& name) const {
  for (const auto& c : components_) {
    if (c->name() == name) return c.get();
  }
  return nullptr;
}

void Controller::start() {
  if (started_) return;
  // Topological sort of the dependency graph (DFS, cycle detection).
  ordered_.clear();
  std::map<std::string, int> state;  // 0 unvisited, 1 visiting, 2 done
  std::function<void(Component*)> visit = [&](Component* c) {
    int& s = state[c->name()];
    if (s == 2) return;
    if (s == 1) throw std::runtime_error("component dependency cycle at " + c->name());
    s = 1;
    for (const auto& dep : c->dependencies()) {
      Component* d = component(dep);
      if (d == nullptr) {
        throw std::runtime_error("component " + c->name() +
                                 " depends on unknown component " + dep);
      }
      visit(d);
    }
    s = 2;
    ordered_.push_back(c);
  };
  for (const auto& c : components_) visit(c.get());

  for (Component* c : ordered_) {
    HW_LOG_INFO(kLog, "installing component %s", c->name().c_str());
    c->install(*this);
  }
  started_ = true;
}

void Controller::connect_datapath(ofp::ChannelEndpoint& channel) {
  auto conn = std::make_unique<Connection>();
  conn->channel = &channel;
  Connection* raw = conn.get();
  channel.on_receive(
      [this, raw](const Bytes& encoded) { handle_message(*raw, encoded); });
  connections_.push_back(std::move(conn));
  // OpenFlow handshake: HELLO then FEATURES_REQUEST.
  send(*raw, next_xid(), ofp::Hello{});
  send(*raw, next_xid(), ofp::FeaturesRequest{});
}

std::vector<DatapathId> Controller::datapaths() const {
  std::vector<DatapathId> out;
  for (const auto& c : connections_) {
    if (c->dpid) out.push_back(*c->dpid);
  }
  return out;
}

bool Controller::datapath_connected(DatapathId dpid) const {
  return std::any_of(connections_.begin(), connections_.end(),
                     [&](const auto& c) { return c->dpid == dpid; });
}

const ofp::FeaturesReply* Controller::features(DatapathId dpid) const {
  for (const auto& c : connections_) {
    if (c->dpid == dpid) return &c->features;
  }
  return nullptr;
}

template <typename T>
void Controller::send(Connection& conn, std::uint32_t xid, const T& msg) {
  ofp::encode_into(tx_, xid, msg);
  conn.channel->send(tx_);
  release_if_oversized(tx_, kKeepTxBytes);
}

Controller::Connection* Controller::find(DatapathId dpid) {
  for (const auto& c : connections_) {
    if (c->dpid == dpid) return c.get();
  }
  return nullptr;
}

void Controller::handle_message(Connection& conn, const Bytes& encoded) {
  auto env = ofp::decode(encoded);
  if (!env) {
    HW_LOG_WARN(kLog, "undecodable datapath message: %s",
                env.error().message.c_str());
    return;
  }
  const std::uint32_t xid = env.value().xid;

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ofp::Hello>) {
          if (conn.dpid) {
            // A fresh HELLO on an identified connection means the datapath
            // restarted and lost its flow table: run a full re-sync.
            HW_LOG_WARN(kLog, "datapath %llu re-sent HELLO; re-syncing",
                        static_cast<unsigned long long>(*conn.dpid));
            resync_datapath(*conn.dpid);
          }
          // otherwise nothing further; features request already in flight
        } else if constexpr (std::is_same_v<T, ofp::EchoRequest>) {
          send(conn, xid, ofp::EchoReply{std::move(m.data)});
        } else if constexpr (std::is_same_v<T, ofp::EchoReply>) {
          auto it = pending_echo_.find(xid);
          if (it != pending_echo_.end()) {
            auto cb = std::move(it->second);
            pending_echo_.erase(it);
            cb();
          }
        } else if constexpr (std::is_same_v<T, ofp::FeaturesReply>) {
          const bool rejoin = conn.dpid.has_value();
          // A resync requested while the dpid was unknown re-arms here: the
          // first reply identifying it runs the full re-sync path.
          const bool rearmed = pending_resync_.erase(m.datapath_id) > 0;
          const bool resync = rejoin || rearmed;
          conn.dpid = m.datapath_id;
          conn.features = m;
          HW_LOG_INFO(kLog, "datapath %llu %sjoined with %zu ports",
                      static_cast<unsigned long long>(m.datapath_id),
                      rejoin ? "re-" : "", m.ports.size());
          const std::uint64_t mods_before = metrics_.flow_mods.value();
          for (Component* c : ordered_) {
            c->handle_datapath_join(m.datapath_id, conn.features);
          }
          if (resync_hook_) {
            // Goal-state mode: the hook triggers a reconcile round that
            // reads the table back, applies the minimal delta and (for
            // resyncs) finishes through confirm_resync().
            resync_hook_(m.datapath_id, resync);
          } else {
            replay_flow_setup(m.datapath_id);
            if (resync) {
              // Everything the components and the replay just pushed is the
              // recovery re-install; a barrier confirms it landed.
              metrics_.resynced_flows.inc(metrics_.flow_mods.value() -
                                          mods_before);
              const DatapathId dpid = m.datapath_id;
              send_barrier(dpid, [this, dpid] {
                HW_LOG_INFO(kLog, "datapath %llu re-sync barrier confirmed",
                            static_cast<unsigned long long>(dpid));
                if (on_resynced_) on_resynced_(dpid);
              });
            }
          }
        } else if constexpr (std::is_same_v<T, ofp::PacketIn>) {
          if (conn.dpid) dispatch_packet_in(*conn.dpid, m);
        } else if constexpr (std::is_same_v<T, ofp::FlowRemoved>) {
          metrics_.flow_removed.inc();
          if (conn.dpid) {
            for (Component* c : ordered_) c->handle_flow_removed(*conn.dpid, m);
          }
        } else if constexpr (std::is_same_v<T, ofp::PortStatus>) {
          if (conn.dpid) {
            for (Component* c : ordered_) c->handle_port_status(*conn.dpid, m);
          }
        } else if constexpr (std::is_same_v<T, ofp::ErrorMsg>) {
          metrics_.errors.inc();
          HW_LOG_WARN(kLog, "datapath error type=%u code=%u",
                      static_cast<unsigned>(m.type), m.code);
          if (conn.dpid) {
            for (Component* c : ordered_) c->handle_error(*conn.dpid, m);
          }
        } else if constexpr (std::is_same_v<T, ofp::StatsReply>) {
          auto it = pending_stats_.find(xid);
          if (it != pending_stats_.end()) {
            // Paginated replies (OFPSF_REPLY_MORE) accumulate until the
            // final fragment; the callback sees one merged reply.
            if (auto* flows =
                    std::get_if<std::vector<ofp::FlowStatsEntry>>(&m.body)) {
              auto& partial = partial_stats_[xid];
              partial.insert(partial.end(),
                             std::make_move_iterator(flows->begin()),
                             std::make_move_iterator(flows->end()));
              if ((m.flags & ofp::kStatsReplyMore) != 0) return;
              m.body = std::move(partial);
              m.flags = 0;
              partial_stats_.erase(xid);
            }
            auto cb = std::move(it->second);
            pending_stats_.erase(it);
            cb(m);
          }
        } else if constexpr (std::is_same_v<T, ofp::BarrierReply>) {
          auto it = pending_barrier_.find(xid);
          if (it != pending_barrier_.end()) {
            auto cb = std::move(it->second);
            pending_barrier_.erase(it);
            if (cb) cb();
          }
        } else {
          HW_LOG_WARN(kLog, "unexpected message type %s from datapath",
                      to_string(T::kType));
        }
      },
      std::move(env).take().msg);
}

void Controller::dispatch_packet_in(DatapathId dpid, const ofp::PacketIn& pi) {
  const telemetry::ScopedTimer timer(metrics_.packet_in_dispatch_ns);
  metrics_.packet_ins.inc();
  auto parsed = net::ParsedPacket::parse(pi.data);
  if (!parsed) {
    metrics_.unparseable_packets.inc();
    return;
  }
  const PacketInEvent event{dpid, pi, parsed.value()};
  for (Component* c : ordered_) {
    if (c->handle_packet_in(event) == Disposition::Stop) break;
  }
}

void Controller::send_flow_mod(DatapathId dpid, const ofp::FlowMod& mod) {
  Connection* conn = find(dpid);
  if (conn == nullptr) return;
  metrics_.flow_mods.inc();
  send(*conn, next_xid(), mod);
}

void Controller::send_packet_out(DatapathId dpid, const ofp::PacketOut& po) {
  Connection* conn = find(dpid);
  if (conn == nullptr) return;
  metrics_.packet_outs.inc();
  send(*conn, next_xid(), po);
}

void Controller::install_flow(DatapathId dpid, const ofp::Match& match,
                              ofp::ActionList actions, std::uint16_t priority,
                              std::uint16_t idle_timeout,
                              std::uint16_t hard_timeout, bool notify_removal,
                              std::uint64_t cookie) {
  ofp::FlowMod mod;
  mod.match = match;
  mod.command = ofp::FlowModCommand::Add;
  mod.actions = std::move(actions);
  mod.priority = priority;
  mod.idle_timeout = idle_timeout;
  mod.hard_timeout = hard_timeout;
  mod.cookie = cookie;
  if (notify_removal) mod.flags |= ofp::FlowModFlags::kSendFlowRem;
  send_flow_mod(dpid, mod);
}

void Controller::delete_flows(DatapathId dpid, const ofp::Match& match) {
  ofp::FlowMod mod;
  mod.match = match;
  mod.command = ofp::FlowModCommand::Delete;
  send_flow_mod(dpid, mod);
}

void Controller::request_stats(DatapathId dpid, const ofp::StatsRequest& req,
                               StatsCallback cb) {
  Connection* conn = find(dpid);
  if (conn == nullptr) return;
  const std::uint32_t xid = next_xid();
  pending_stats_[xid] = std::move(cb);
  send(*conn, xid, req);
}

void Controller::send_echo(DatapathId dpid, std::function<void()> on_reply) {
  Connection* conn = find(dpid);
  if (conn == nullptr) return;
  const std::uint32_t xid = next_xid();
  pending_echo_[xid] = std::move(on_reply);
  send(*conn, xid, ofp::EchoRequest{});
}

void Controller::send_barrier(DatapathId dpid, std::function<void()> cb) {
  Connection* conn = find(dpid);
  if (conn == nullptr) return;
  const std::uint32_t xid = next_xid();
  pending_barrier_[xid] = std::move(cb);
  send(*conn, xid, ofp::BarrierRequest{});
}

void Controller::resync_datapath(DatapathId dpid) {
  Connection* conn = find(dpid);
  if (conn == nullptr) {
    // The dpid is not identified on any live connection (it reconnected and
    // has not completed FEATURES yet, or never existed). Count the skip and
    // re-arm: the next FEATURES_REPLY naming this dpid re-syncs it.
    metrics_.resync_skipped.inc();
    pending_resync_.insert(dpid);
    return;
  }
  metrics_.reconnects.inc();
  // Restart the handshake; the FEATURES_REPLY handler re-announces the join
  // to every component and re-syncs the table (replay or reconcile round).
  send(*conn, next_xid(), ofp::FeaturesRequest{});
}

void Controller::collect_flow_intents(DatapathId dpid,
                                      FlowIntentSink& sink) const {
  for (Component* c : ordered_) c->contribute_flows(dpid, sink);
}

void Controller::replay_flow_setup(DatapathId dpid) {
  // Direct-wire sink: each contribution becomes an Add flow-mod carrying the
  // deterministic desired-state cookie, exactly what a reconcile Add sends.
  class WireSink final : public FlowIntentSink {
   public:
    WireSink(Controller& ctl, DatapathId dpid) : ctl_(ctl), dpid_(dpid) {}
    void add(FlowIntent intent) override {
      ofp::FlowMod mod;
      mod.match = intent.match;
      mod.command = ofp::FlowModCommand::Add;
      mod.priority = intent.priority;
      mod.idle_timeout = intent.idle_timeout;
      mod.hard_timeout = intent.hard_timeout;
      mod.flags = intent.flags;
      mod.cookie = desired_cookie(intent.key);
      mod.actions = std::move(intent.actions);
      ctl_.send_flow_mod(dpid_, mod);
    }

   private:
    Controller& ctl_;
    DatapathId dpid_;
  } sink(*this, dpid);
  collect_flow_intents(dpid, sink);
}

void Controller::confirm_resync(DatapathId dpid, std::uint64_t flows) {
  metrics_.resynced_flows.inc(flows);
  HW_LOG_INFO(kLog, "datapath %llu reconcile re-sync converged (%llu flows)",
              static_cast<unsigned long long>(dpid),
              static_cast<unsigned long long>(flows));
  if (on_resynced_) on_resynced_(dpid);
}

}  // namespace hw::nox
