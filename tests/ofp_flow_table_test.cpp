// Flow table semantics: priority order, add/modify/delete (strict and not),
// overlap checking, idle/hard timeouts, counters and stats queries.
#include <gtest/gtest.h>

#include "openflow/flow_table.hpp"

namespace hw::ofp {
namespace {

Match exact_pkt(std::uint16_t tp_dst, Ipv4Address src = Ipv4Address{10, 0, 0, 1}) {
  Match m;
  m.wildcards = 0;
  m.in_port = 1;
  m.dl_src = MacAddress::from_index(1);
  m.dl_dst = MacAddress::from_index(2);
  m.dl_vlan = 0xffff;
  m.dl_type = 0x0800;
  m.nw_proto = 6;
  m.nw_src = src;
  m.nw_dst = Ipv4Address{8, 8, 8, 8};
  m.tp_src = 40000;
  m.tp_dst = tp_dst;
  return m;
}

FlowMod add_rule(Match match, std::uint16_t priority, ActionList actions,
                 std::uint16_t idle = 0, std::uint16_t hard = 0) {
  FlowMod mod;
  mod.match = match;
  mod.command = FlowModCommand::Add;
  mod.priority = priority;
  mod.actions = std::move(actions);
  mod.idle_timeout = idle;
  mod.hard_timeout = hard;
  return mod;
}

TEST(FlowTable, LookupHonoursPriority) {
  FlowTable table;
  Match broad = Match::any();
  broad.with_dl_type(0x0800);
  table.apply(add_rule(broad, 100, output_to(1)), 0);
  Match narrow = Match::any();
  narrow.with_dl_type(0x0800).with_tp_dst(80);
  table.apply(add_rule(narrow, 200, output_to(2)), 0);

  FlowEntry* hit = table.lookup(exact_pkt(80), 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 2);

  hit = table.lookup(exact_pkt(443), 0, 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(hit->actions[0]).port, 1);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable table;
  Match arp_only = Match::any();
  arp_only.with_dl_type(0x0806);
  table.apply(add_rule(arp_only, 1, output_to(1)), 0);
  EXPECT_EQ(table.lookup(exact_pkt(80), 0, 100), nullptr);
  EXPECT_EQ(table.stats().lookups.value(), 1u);
  EXPECT_EQ(table.stats().matches.value(), 0u);
}

TEST(FlowTable, CountersAccumulate) {
  FlowTable table;
  table.apply(add_rule(Match::any(), 1, output_to(1)), 0);
  table.lookup(exact_pkt(80), 10, 100);
  table.lookup(exact_pkt(80), 20, 200);
  const FlowEntry* e = table.peek(exact_pkt(80));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packet_count, 2u);
  EXPECT_EQ(e->byte_count, 300u);
  EXPECT_EQ(e->last_used, 20u);
}

TEST(FlowTable, AddIdenticalPatternReplacesAndResetsCounters) {
  FlowTable table;
  Match m = Match::any();
  m.with_tp_dst(80);
  table.apply(add_rule(m, 5, output_to(1)), 0);
  table.lookup(exact_pkt(80), 0, 100);
  table.apply(add_rule(m, 5, output_to(9)), 50);
  EXPECT_EQ(table.size(), 1u);
  const FlowEntry* e = table.peek(exact_pkt(80));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packet_count, 0u);
  EXPECT_EQ(std::get<ActionOutput>(e->actions[0]).port, 9);
}

TEST(FlowTable, CheckOverlapRejects) {
  FlowTable table;
  Match a = Match::any();
  a.with_tp_dst(80);
  table.apply(add_rule(a, 5, output_to(1)), 0);

  Match b = Match::any();
  b.with_nw_proto(6);  // overlaps a (neither is more specific on all fields)
  FlowMod mod = add_rule(b, 5, output_to(2));
  mod.flags = FlowModFlags::kCheckOverlap;
  EXPECT_EQ(table.apply(mod, 0), FlowModResult::Overlap);
  // Different priority never overlaps.
  mod.priority = 6;
  EXPECT_EQ(table.apply(mod, 0), FlowModResult::Added);
}

TEST(FlowTable, ModifyRewritesActionsKeepsCounters) {
  FlowTable table;
  Match m = Match::any();
  m.with_tp_dst(80);
  table.apply(add_rule(m, 5, output_to(1)), 0);
  table.lookup(exact_pkt(80), 0, 100);

  FlowMod mod;
  mod.match = Match::any();  // non-strict: covers everything
  mod.command = FlowModCommand::Modify;
  mod.actions = output_to(7);
  EXPECT_EQ(table.apply(mod, 0), FlowModResult::Modified);
  const FlowEntry* e = table.peek(exact_pkt(80));
  EXPECT_EQ(std::get<ActionOutput>(e->actions[0]).port, 7);
  EXPECT_EQ(e->packet_count, 1u);  // counters preserved on modify
}

TEST(FlowTable, ModifyWithNoMatchActsAsAdd) {
  FlowTable table;
  FlowMod mod;
  mod.match = Match::any();
  mod.match.with_tp_dst(99);
  mod.command = FlowModCommand::ModifyStrict;
  mod.priority = 3;
  mod.actions = output_to(1);
  EXPECT_EQ(table.apply(mod, 0), FlowModResult::Added);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, DeleteNonStrictRemovesCovered) {
  FlowTable table;
  Match a = Match::any();
  a.with_dl_type(0x0800).with_tp_dst(80);
  Match b = Match::any();
  b.with_dl_type(0x0800).with_tp_dst(443);
  Match c = Match::any();
  c.with_dl_type(0x0806);
  table.apply(add_rule(a, 5, output_to(1)), 0);
  table.apply(add_rule(b, 5, output_to(1)), 0);
  table.apply(add_rule(c, 5, output_to(1)), 0);

  FlowMod del;
  del.match = Match::any();
  del.match.with_dl_type(0x0800);
  del.command = FlowModCommand::Delete;
  std::vector<FlowEntry> removed;
  EXPECT_EQ(table.apply(del, 0, &removed), FlowModResult::Deleted);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(table.size(), 1u);  // the ARP rule survives
}

TEST(FlowTable, DeleteStrictRequiresExactPattern) {
  FlowTable table;
  Match a = Match::any();
  a.with_tp_dst(80);
  table.apply(add_rule(a, 5, output_to(1)), 0);

  FlowMod del;
  del.match = Match::any();  // broader pattern
  del.command = FlowModCommand::DeleteStrict;
  del.priority = 5;
  EXPECT_EQ(table.apply(del, 0), FlowModResult::NoMatch);

  del.match = a;
  del.priority = 4;  // wrong priority
  EXPECT_EQ(table.apply(del, 0), FlowModResult::NoMatch);

  del.priority = 5;
  EXPECT_EQ(table.apply(del, 0), FlowModResult::Deleted);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, DeleteFiltersByOutPort) {
  FlowTable table;
  Match a = Match::any();
  a.with_tp_dst(80);
  Match b = Match::any();
  b.with_tp_dst(443);
  table.apply(add_rule(a, 5, output_to(1)), 0);
  table.apply(add_rule(b, 5, output_to(2)), 0);

  FlowMod del;
  del.match = Match::any();
  del.command = FlowModCommand::Delete;
  del.out_port = 2;
  EXPECT_EQ(table.apply(del, 0), FlowModResult::Deleted);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.peek(exact_pkt(80)), nullptr);
}

TEST(FlowTable, TableFull) {
  FlowTable table(2);
  Match a = Match::any();
  a.with_tp_dst(1);
  Match b = Match::any();
  b.with_tp_dst(2);
  Match c = Match::any();
  c.with_tp_dst(3);
  EXPECT_EQ(table.apply(add_rule(a, 5, {}), 0), FlowModResult::Added);
  EXPECT_EQ(table.apply(add_rule(b, 5, {}), 0), FlowModResult::Added);
  EXPECT_EQ(table.apply(add_rule(c, 5, {}), 0), FlowModResult::TableFull);
}

TEST(FlowTable, IdleTimeoutExpiresFromLastUse) {
  FlowTable table;
  table.apply(add_rule(Match::any(), 1, output_to(1), /*idle=*/10), 0);
  table.lookup(exact_pkt(80), 5 * kSecond, 100);
  // At 14s: last use 5s, idle 10s → not yet.
  EXPECT_TRUE(table.expire(14 * kSecond).empty());
  auto removed = table.expire(15 * kSecond);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].second, FlowRemovedReason::IdleTimeout);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlowTable, ZeroLengthPacketRefreshesIdleTimeout) {
  // OF 1.0 §3.4: any matched packet counts as use, including zero-length
  // ones — the idle clock restarts even when no payload bytes are carried.
  FlowTable table;
  table.apply(add_rule(Match::any(), 1, output_to(1), /*idle=*/10), 0);
  table.lookup(exact_pkt(80), 2 * kSecond, 100);
  FlowEntry* entry = table.lookup(exact_pkt(80), 8 * kSecond, /*bytes=*/0);
  ASSERT_NE(entry, nullptr);
  // The zero-length hit counts a packet but no bytes.
  EXPECT_EQ(entry->packet_count, 2u);
  EXPECT_EQ(entry->byte_count, 100u);
  // Without the refresh at 8s the entry would expire at 12s (last payload
  // at 2s + idle 10s); the zero-length packet pushed that out to 18s.
  EXPECT_TRUE(table.expire(17 * kSecond).empty());
  auto removed = table.expire(18 * kSecond);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].second, FlowRemovedReason::IdleTimeout);
}

TEST(FlowTable, HardTimeoutExpiresFromInstall) {
  FlowTable table;
  table.apply(add_rule(Match::any(), 1, output_to(1), 0, /*hard=*/20), 0);
  // Constant traffic does not save it.
  for (int s = 1; s <= 19; ++s) table.lookup(exact_pkt(80), s * kSecond, 1);
  EXPECT_TRUE(table.expire(19 * kSecond).empty());
  auto removed = table.expire(20 * kSecond);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].second, FlowRemovedReason::HardTimeout);
}

TEST(FlowTable, ZeroTimeoutsArePermanent) {
  FlowTable table;
  table.apply(add_rule(Match::any(), 1, output_to(1)), 0);
  EXPECT_TRUE(table.expire(~Timestamp{0} / 2).empty());
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlowTable, QueryFiltersByMatchAndOutPort) {
  FlowTable table;
  Match web = Match::any();
  web.with_dl_type(0x0800).with_tp_dst(80);
  Match dns = Match::any();
  dns.with_dl_type(0x0800).with_tp_dst(53);
  table.apply(add_rule(web, 5, output_to(1)), 0);
  table.apply(add_rule(dns, 5, output_to(2)), 0);

  EXPECT_EQ(table.query(Match::any()).size(), 2u);
  Match filter = Match::any();
  filter.with_tp_dst(53);
  EXPECT_EQ(table.query(filter).size(), 1u);
  EXPECT_EQ(table.query(Match::any(), 1).size(), 1u);
  EXPECT_EQ(table.query(Match::any(), 9).size(), 0u);
}

TEST(FlowTable, SubtableCountTracksDistinctWildcardPatterns) {
  FlowTable table;
  EXPECT_EQ(table.subtable_count(), 0u);
  Match web = Match::any();
  web.with_dl_type(0x0800).with_tp_dst(80);
  Match dns = Match::any();
  dns.with_dl_type(0x0800).with_tp_dst(53);
  table.apply(add_rule(web, 5, output_to(1)), 0);
  table.apply(add_rule(dns, 6, output_to(2)), 0);
  // Same wildcard bitmap → same subtable.
  EXPECT_EQ(table.subtable_count(), 1u);
  Match arp = Match::any();
  arp.with_dl_type(0x0806);
  table.apply(add_rule(arp, 5, output_to(3)), 0);
  EXPECT_EQ(table.subtable_count(), 2u);
  // Exact rules land in a third subtable.
  table.apply(add_rule(exact_pkt(80), 5, output_to(4)), 0);
  EXPECT_EQ(table.subtable_count(), 3u);

  // Deleting the last entry of a pattern prunes its subtable.
  FlowMod del;
  del.match = Match::any();
  del.match.with_dl_type(0x0806);
  del.command = FlowModCommand::DeleteStrict;
  del.priority = 5;
  EXPECT_EQ(table.apply(del, 0), FlowModResult::Deleted);
  EXPECT_EQ(table.subtable_count(), 2u);
}

TEST(FlowTable, GenerationBumpsOnEveryMutation) {
  FlowTable table;
  const std::uint64_t g0 = table.generation();
  Match m = Match::any();
  m.with_tp_dst(80);
  table.apply(add_rule(m, 5, output_to(1), /*idle=*/1), 0);
  const std::uint64_t g1 = table.generation();
  EXPECT_GT(g1, g0);

  // Lookups are not mutations.
  table.lookup(exact_pkt(80), 0, 64);
  EXPECT_EQ(table.generation(), g1);

  // Replace, modify, delete and expire all invalidate cached handles.
  table.apply(add_rule(m, 5, output_to(2)), 0);
  const std::uint64_t g2 = table.generation();
  EXPECT_GT(g2, g1);
  FlowMod mod;
  mod.match = Match::any();
  mod.command = FlowModCommand::Modify;
  mod.actions = output_to(3);
  table.apply(mod, 0);
  const std::uint64_t g3 = table.generation();
  EXPECT_GT(g3, g2);
  table.apply(add_rule(m, 5, output_to(1), /*idle=*/1), 0);
  const std::uint64_t g4 = table.generation();
  EXPECT_FALSE(table.expire(10 * kSecond).empty());
  EXPECT_GT(table.generation(), g4);
}

TEST(FlowTable, TableFullCounterCountsRejections) {
  FlowTable table(1);
  Match a = Match::any();
  a.with_tp_dst(1);
  Match b = Match::any();
  b.with_tp_dst(2);
  EXPECT_EQ(table.apply(add_rule(a, 5, {}), 0), FlowModResult::Added);
  EXPECT_EQ(table.stats().table_full.value(), 0u);
  EXPECT_EQ(table.apply(add_rule(b, 5, {}), 0), FlowModResult::TableFull);
  EXPECT_EQ(table.apply(add_rule(b, 5, {}), 0), FlowModResult::TableFull);
  EXPECT_EQ(table.stats().table_full.value(), 2u);
  // Replacing an existing pattern is not an insert and must still succeed.
  EXPECT_EQ(table.apply(add_rule(a, 5, output_to(9)), 0),
            FlowModResult::Added);
  EXPECT_EQ(table.stats().table_full.value(), 2u);
}

TEST(FlowTable, PeekAgreesWithLookupWithoutCounterSideEffects) {
  FlowTable table;
  Match broad = Match::any();
  broad.with_dl_type(0x0800);
  Match narrow = Match::any();
  narrow.with_dl_type(0x0800).with_tp_dst(80);
  table.apply(add_rule(broad, 100, output_to(1)), 0);
  table.apply(add_rule(narrow, 200, output_to(2)), 0);

  const FlowEntry* peeked = table.peek(exact_pkt(80));
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->packet_count, 0u);
  EXPECT_EQ(table.stats().lookups.value(), 0u);

  FlowEntry* looked = table.lookup(exact_pkt(80), 0, 64);
  ASSERT_NE(looked, nullptr);
  EXPECT_EQ(looked, peeked);  // same winner through the same code path
  EXPECT_EQ(table.peek(exact_pkt(443)), table.lookup(exact_pkt(443), 0, 64));
  EXPECT_EQ(table.peek(exact_pkt(80, Ipv4Address{1, 2, 3, 4})),
            table.lookup(exact_pkt(80, Ipv4Address{1, 2, 3, 4}), 0, 64));
}

TEST(FlowTable, SubtableScansStayBelowRuleCount) {
  // 100 exact-match rules share one wildcard pattern: a lookup probes one
  // subtable, not one rule at a time.
  FlowTable table;
  for (std::uint16_t i = 0; i < 100; ++i) {
    table.apply(add_rule(exact_pkt(i), 5, output_to(1)), 0);
  }
  EXPECT_EQ(table.subtable_count(), 1u);
  table.lookup(exact_pkt(7), 0, 64);
  EXPECT_EQ(table.stats().subtable_scans.value(), 1u);
}

TEST(FlowTable, ForEachVisitsAll) {
  FlowTable table;
  for (std::uint16_t i = 0; i < 5; ++i) {
    Match m = Match::any();
    m.with_tp_dst(i);
    table.apply(add_rule(m, i, {}), 0);
  }
  int count = 0;
  std::uint16_t last_priority = 0xffff;
  table.for_each([&](const FlowEntry& e) {
    ++count;
    EXPECT_LE(e.priority, last_priority);  // descending priority order
    last_priority = e.priority;
  });
  EXPECT_EQ(count, 5);
}

}  // namespace
}  // namespace hw::ofp
