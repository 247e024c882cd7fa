#include "openflow/flow_table.hpp"

#include <algorithm>

namespace hw::ofp {
namespace {

/// The one place a FlowMod's payload lands in an entry — shared by the
/// Add-replace and Add-insert paths so the two can never drift. Counters
/// reset per spec §4.6 (a fresh entry starts at zero anyway).
void assign_from_mod(FlowEntry& e, FlowMod& mod, Timestamp now) {
  e.actions = std::move(mod.actions);
  e.cookie = mod.cookie;
  e.idle_timeout = mod.idle_timeout;
  e.hard_timeout = mod.hard_timeout;
  e.send_flow_removed = (mod.flags & FlowModFlags::kSendFlowRem) != 0;
  e.install_time = now;
  e.last_used = now;
  e.packet_count = 0;
  e.byte_count = 0;
}

}  // namespace

bool FlowTable::entry_outputs_to(const FlowEntry& e, std::uint16_t out_port) const {
  if (out_port == port_no(Port::None)) return true;
  return std::any_of(e.actions.begin(), e.actions.end(), [&](const Action& a) {
    const auto* out = std::get_if<ActionOutput>(&a);
    return out != nullptr && out->port == out_port;
  });
}

FlowTable::Subtable* FlowTable::subtable_for(std::uint32_t wildcards) {
  for (const auto& sub : subtables_) {
    if (sub->wildcards == wildcards) return sub.get();
  }
  return nullptr;
}

FlowTable::Subtable& FlowTable::create_subtable(std::uint32_t wildcards) {
  auto sub = std::make_unique<Subtable>();
  sub->wildcards = wildcards;
  sub->mask = FlowMask::from_wildcards(wildcards);
  subtables_.push_back(std::move(sub));
  metrics_.subtables.set(static_cast<std::int64_t>(subtables_.size()));
  return *subtables_.back();
}

void FlowTable::sort_subtables() {
  std::stable_sort(subtables_.begin(), subtables_.end(),
                   [](const auto& a, const auto& b) {
                     return a->max_priority > b->max_priority;
                   });
}

void FlowTable::prune_and_resort() {
  for (const auto& sub : subtables_) {
    sub->max_priority = 0;
    for (const auto& [key, bucket] : sub->buckets) {
      // Buckets are sorted descending, so front() carries the bucket max.
      sub->max_priority = std::max(sub->max_priority, bucket.front().priority);
    }
  }
  std::erase_if(subtables_, [](const auto& sub) { return sub->n_entries == 0; });
  sort_subtables();
  metrics_.subtables.set(static_cast<std::int64_t>(subtables_.size()));
}

void FlowTable::bump_generation() { ++generation_; }

FlowEntry* FlowTable::find_in(Subtable& sub, const FlowKey& key,
                               std::uint16_t priority) {
  // Same wildcards and same masked key is exactly same_pattern().
  const auto it = sub.buckets.find(hw::ofp::apply(sub.mask, key));
  if (it == sub.buckets.end()) return nullptr;
  for (auto& e : it->second) {
    if (e.priority == priority) return &e;
  }
  return nullptr;
}

FlowEntry* FlowTable::find_strict(const Match& match, std::uint16_t priority) {
  Subtable* sub = subtable_for(match.wildcards);
  return sub == nullptr ? nullptr
                        : find_in(*sub, FlowKey::from_match(match), priority);
}

FlowModResult FlowTable::apply(FlowMod mod, Timestamp now,
                               std::vector<FlowEntry>* removed) {
  switch (mod.command) {
    case FlowModCommand::Add: {
      if (mod.flags & FlowModFlags::kCheckOverlap) {
        for (const auto& sub : subtables_) {
          for (const auto& [key, bucket] : sub->buckets) {
            for (const auto& e : bucket) {
              if (e.priority == mod.priority && e.match.overlaps(mod.match) &&
                  !e.match.same_pattern(mod.match)) {
                return FlowModResult::Overlap;
              }
            }
          }
        }
      }
      const FlowKey key = FlowKey::from_match(mod.match);
      Subtable* sub = subtable_for(mod.match.wildcards);
      // Identical match+priority replaces the entry (spec §4.6).
      if (FlowEntry* same =
              sub != nullptr ? find_in(*sub, key, mod.priority) : nullptr) {
        assign_from_mod(*same, mod, now);
        metrics_.entries.set(static_cast<std::int64_t>(size_));
        bump_generation();
        return FlowModResult::Added;
      }
      if (size_ >= capacity_) {
        metrics_.table_full.inc();
        return FlowModResult::TableFull;
      }
      if (sub == nullptr) sub = &create_subtable(mod.match.wildcards);
      FlowEntry e;
      e.match = mod.match;
      e.priority = mod.priority;
      e.seq = next_seq_++;
      assign_from_mod(e, mod, now);
      auto& bucket = sub->buckets[hw::ofp::apply(sub->mask, key)];
      // Descending priority within the bucket; later adds go after earlier
      // ones among equal priorities.
      const auto pos = std::upper_bound(
          bucket.begin(), bucket.end(), e.priority,
          [](std::uint16_t p, const FlowEntry& x) { return p > x.priority; });
      bucket.insert(pos, std::move(e));
      ++sub->n_entries;
      ++size_;
      if (sub->n_entries == 1 || mod.priority > sub->max_priority) {
        sub->max_priority = mod.priority;
        sort_subtables();
      }
      metrics_.entries.set(static_cast<std::int64_t>(size_));
      bump_generation();
      return FlowModResult::Added;
    }

    case FlowModCommand::Modify:
    case FlowModCommand::ModifyStrict: {
      const bool strict = mod.command == FlowModCommand::ModifyStrict;
      bool any = false;
      for (const auto& sub : subtables_) {
        for (auto& [key, bucket] : sub->buckets) {
          for (auto& e : bucket) {
            const bool hit = strict ? (e.priority == mod.priority &&
                                       e.match.same_pattern(mod.match))
                                    : mod.match.covers(e.match);
            if (hit) {
              e.actions = mod.actions;
              e.cookie = mod.cookie;
              any = true;
            }
          }
        }
      }
      if (any) {
        bump_generation();
        return FlowModResult::Modified;
      }
      // Per spec, MODIFY with no match behaves like ADD.
      mod.command = FlowModCommand::Add;
      return apply(std::move(mod), now, removed);
    }

    case FlowModCommand::Delete:
    case FlowModCommand::DeleteStrict: {
      const bool strict = mod.command == FlowModCommand::DeleteStrict;
      const bool any = remove_entries(
          [&](const FlowEntry& e) {
            return (strict ? (e.priority == mod.priority &&
                              e.match.same_pattern(mod.match))
                           : mod.match.covers(e.match)) &&
                   entry_outputs_to(e, mod.out_port);
          },
          [&](FlowEntry&& e) {
            if (removed != nullptr) removed->push_back(std::move(e));
          });
      metrics_.entries.set(static_cast<std::int64_t>(size_));
      return any ? FlowModResult::Deleted : FlowModResult::NoMatch;
    }
  }
  return FlowModResult::NoMatch;
}

const FlowEntry* FlowTable::find(const FlowKey& key,
                                 std::uint64_t* scanned) const {
  const FlowEntry* best = nullptr;
  for (const auto& sub : subtables_) {
    // Every remaining subtable tops out at or below this one; once the best
    // hit strictly outranks that bound, no further probe can win. Ties keep
    // scanning — an equal-priority entry installed earlier still beats us.
    if (best != nullptr && best->priority > sub->max_priority) break;
    if (scanned != nullptr) ++*scanned;
    const auto it = sub->buckets.find(hw::ofp::apply(sub->mask, key));
    if (it == sub->buckets.end()) continue;
    const FlowEntry& candidate = it->second.front();
    if (best == nullptr || candidate.priority > best->priority ||
        (candidate.priority == best->priority && candidate.seq < best->seq)) {
      best = &candidate;
    }
  }
  return best;
}

FlowEntry* FlowTable::lookup(const FlowKey& key, Timestamp now,
                             std::size_t bytes) {
  const telemetry::ScopedTimer timer(metrics_.lookup_ns);
  metrics_.lookups.inc();
  std::uint64_t scanned = 0;
  auto* e = const_cast<FlowEntry*>(find(key, &scanned));
  metrics_.subtable_scans.inc(scanned);
  if (e == nullptr) return nullptr;
  metrics_.matches.inc();
  // Zero-length packets still refresh the idle timeout: OF 1.0 expires on
  // packet arrival, not byte volume.
  e->last_used = now;
  ++e->packet_count;
  e->byte_count += bytes;
  return e;
}

FlowEntry* FlowTable::lookup(const Match& pkt, Timestamp now,
                             std::size_t bytes) {
  return lookup(FlowKey::from_match(pkt), now, bytes);
}

const FlowEntry* FlowTable::peek(const FlowKey& key) const {
  return find(key, nullptr);
}

const FlowEntry* FlowTable::peek(const Match& pkt) const {
  return peek(FlowKey::from_match(pkt));
}

void FlowTable::record_hit(FlowEntry& entry, Timestamp now, std::size_t bytes) {
  metrics_.lookups.inc();
  metrics_.matches.inc();
  entry.last_used = now;
  ++entry.packet_count;
  entry.byte_count += bytes;
}

bool FlowTable::remove_entries(
    const std::function<bool(const FlowEntry&)>& pred,
    const std::function<void(FlowEntry&&)>& sink) {
  bool any = false;
  for (const auto& sub : subtables_) {
    for (auto bit = sub->buckets.begin(); bit != sub->buckets.end();) {
      auto& bucket = bit->second;
      for (auto eit = bucket.begin(); eit != bucket.end();) {
        if (pred(*eit)) {
          sink(std::move(*eit));
          eit = bucket.erase(eit);
          --sub->n_entries;
          --size_;
          any = true;
        } else {
          ++eit;
        }
      }
      bit = bucket.empty() ? sub->buckets.erase(bit) : std::next(bit);
    }
  }
  if (any) {
    prune_and_resort();
    bump_generation();
  }
  return any;
}

std::vector<std::pair<FlowEntry, FlowRemovedReason>> FlowTable::expire(
    Timestamp now, bool suspend_idle) {
  std::vector<std::pair<FlowEntry, FlowRemovedReason>> out;
  // Hard timeout outranks idle when both have fired, matching the original
  // check order.
  const auto reason_for = [&](const FlowEntry& e) {
    if (e.hard_timeout != 0 &&
        now >= e.install_time + static_cast<Duration>(e.hard_timeout) * kSecond) {
      return FlowRemovedReason::HardTimeout;
    }
    return FlowRemovedReason::IdleTimeout;
  };
  remove_entries(
      [&](const FlowEntry& e) {
        if (e.hard_timeout != 0 &&
            now >= e.install_time +
                       static_cast<Duration>(e.hard_timeout) * kSecond) {
          return true;
        }
        return !suspend_idle && e.idle_timeout != 0 &&
               now >= e.last_used +
                          static_cast<Duration>(e.idle_timeout) * kSecond;
      },
      [&](FlowEntry&& e) {
        const FlowRemovedReason reason = reason_for(e);
        out.emplace_back(std::move(e), reason);
      });
  metrics_.entries.set(static_cast<std::int64_t>(size_));
  return out;
}

void FlowTable::clear() {
  if (size_ == 0) return;
  remove_entries([](const FlowEntry&) { return true; }, [](FlowEntry&&) {});
  metrics_.entries.set(static_cast<std::int64_t>(size_));
}

std::vector<const FlowEntry*> FlowTable::query(const Match& filter,
                                               std::uint16_t out_port) const {
  std::vector<const FlowEntry*> out;
  for (const auto& sub : subtables_) {
    for (const auto& [key, bucket] : sub->buckets) {
      for (const auto& e : bucket) {
        if (filter.covers(e.match) && entry_outputs_to(e, out_port)) {
          out.push_back(&e);
        }
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    // Descending priority, insertion order within a band — the order a
    // linear-scan table would naturally report.
    return a->priority != b->priority ? a->priority > b->priority
                                      : a->seq < b->seq;
  });
  return out;
}

void FlowTable::for_each(const std::function<void(const FlowEntry&)>& fn) const {
  for (const FlowEntry* e : query(Match::any())) fn(*e);
}

namespace {
constexpr std::uint32_t kFlowTableTag = snapshot::tag("FTBL");
}  // namespace

void FlowTable::save(snapshot::Writer& w) const {
  // Collect and order by insertion seq: bucket iteration order is hash-map
  // dependent, the seq order is not.
  std::vector<const FlowEntry*> entries;
  entries.reserve(size_);
  for (const auto& sub : subtables_) {
    for (const auto& [key, bucket] : sub->buckets) {
      for (const FlowEntry& e : bucket) entries.push_back(&e);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const FlowEntry* a, const FlowEntry* b) { return a->seq < b->seq; });

  ByteWriter& c = w.begin_chunk(kFlowTableTag);
  c.u64(next_seq_);
  c.u32(static_cast<std::uint32_t>(entries.size()));
  for (const FlowEntry* e : entries) {
    e->match.serialize(c);
    c.u16(e->priority);
    c.u64(e->cookie);
    c.u16(e->idle_timeout);
    c.u16(e->hard_timeout);
    c.u8(e->send_flow_removed ? 1 : 0);
    c.u64(e->install_time);
    c.u64(e->last_used);
    c.u64(e->packet_count);
    c.u64(e->byte_count);
    c.u64(e->seq);
    ByteWriter actions;
    serialize_actions(actions, e->actions);
    c.u16(static_cast<std::uint16_t>(actions.size()));
    c.raw(actions.bytes());
  }
  w.end_chunk();
}

void FlowTable::insert_restored(FlowEntry e) {
  Subtable* sub = subtable_for(e.match.wildcards);
  if (sub == nullptr) sub = &create_subtable(e.match.wildcards);
  const FlowKey key = FlowKey::from_match(e.match);
  auto& bucket = sub->buckets[hw::ofp::apply(sub->mask, key)];
  const auto pos = std::upper_bound(
      bucket.begin(), bucket.end(), e.priority,
      [](std::uint16_t p, const FlowEntry& x) { return p > x.priority; });
  sub->max_priority = std::max(sub->max_priority, e.priority);
  bucket.insert(pos, std::move(e));
  ++sub->n_entries;
  ++size_;
}

Status FlowTable::restore(const snapshot::Reader& r) {
  const Bytes* chunk = r.find(kFlowTableTag);
  if (chunk == nullptr) return Status::success();
  ByteReader br(*chunk);
  auto next_seq = br.u64();
  auto count = br.u32();
  if (!next_seq || !count) return make_error("flow-table chunk truncated");
  if (count.value() > capacity_) {
    return make_error("flow-table snapshot exceeds table capacity");
  }

  clear();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    FlowEntry e;
    auto match = Match::parse(br);
    if (!match) return match.error();
    e.match = match.value();
    auto priority = br.u16();
    auto cookie = br.u64();
    auto idle = br.u16();
    auto hard = br.u16();
    auto send_removed = br.u8();
    auto install_time = br.u64();
    auto last_used = br.u64();
    auto packets = br.u64();
    auto bytes = br.u64();
    auto seq = br.u64();
    auto actions_len = br.u16();
    if (!priority || !cookie || !idle || !hard || !send_removed ||
        !install_time || !last_used || !packets || !bytes || !seq ||
        !actions_len) {
      return make_error("flow-table entry truncated");
    }
    auto actions = parse_actions(br, actions_len.value());
    if (!actions) return actions.error();
    e.priority = priority.value();
    e.cookie = cookie.value();
    e.idle_timeout = idle.value();
    e.hard_timeout = hard.value();
    e.send_flow_removed = send_removed.value() != 0;
    e.install_time = install_time.value();
    e.last_used = last_used.value();
    e.packet_count = packets.value();
    e.byte_count = bytes.value();
    e.seq = seq.value();
    e.actions = std::move(actions).take();
    insert_restored(std::move(e));
  }
  next_seq_ = next_seq.value();
  sort_subtables();
  metrics_.entries.set(static_cast<std::int64_t>(size_));
  bump_generation();
  return Status::success();
}

}  // namespace hw::ofp
