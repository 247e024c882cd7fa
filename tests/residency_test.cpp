// The residency plane (docs/residency.md): content-addressed image storage,
// the deterministic eviction policy, and the headline contract — a fleet
// that hibernates cold homes and pages them back on demand produces merged
// non-histogram telemetry bit-identical to an always-resident fleet, at
// every worker-thread count, because the virtual world is closed and wake
// catch-up replays every missed timer at its recorded virtual time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "live/client.hpp"
#include "live/fleet.hpp"
#include "live/mutation.hpp"
#include "live/server.hpp"
#include "residency/image_store.hpp"
#include "residency/profile.hpp"
#include "residency/residency.hpp"
#include "router_fixture.hpp"
#include "snapshot/codec.hpp"
#include "util/rand.hpp"

namespace hw::residency {
namespace {

std::string diff_maps(const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b) {
  std::string out;
  for (const auto& [name, value] : a) {
    const auto it = b.find(name);
    if (it == b.end()) {
      out += name + ": " + std::to_string(value) + " vs <absent>\n";
    } else if (value != it->second) {
      out += name + ": " + std::to_string(value) + " vs " +
             std::to_string(it->second) + "\n";
    }
  }
  for (const auto& [name, value] : b) {
    if (a.count(name) == 0) {
      out += name + ": <absent> vs " + std::to_string(value) + "\n";
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ImageStore

struct ImageStoreTest : homework::testing::RouterFixture {
  snapshot::SnapshotImage capture_after(Duration run) {
    loop.run_for(run);
    return router.snapshots().capture();
  }
};

TEST_F(ImageStoreTest, PutGetBitExact) {
  ImageStore store;
  const auto image = capture_after(kSecond);
  ASSERT_TRUE(store.put(7, image).ok());
  EXPECT_TRUE(store.contains(7));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.logical_bytes(), image.bytes.size());

  const auto got = store.get(7);
  ASSERT_TRUE(got.ok()) << got.error().message;
  EXPECT_EQ(got.value().bytes, image.bytes);
  EXPECT_EQ(got.value().captured_at, image.captured_at);

  store.erase(7);
  EXPECT_FALSE(store.contains(7));
  EXPECT_EQ(store.logical_bytes(), 0u);
  EXPECT_EQ(store.stored_bytes(), 0u);
}

TEST_F(ImageStoreTest, DedupPoolsSharedChunksAcrossImages) {
  ImageStore store;
  const auto first = capture_after(kSecond);
  loop.run_for(kSecond);
  const auto second = router.snapshots().capture();
  ASSERT_TRUE(store.put(0, first).ok());
  ASSERT_TRUE(store.put(1, first).ok());   // identical twin: full overlap
  ASSERT_TRUE(store.put(2, second).ok());  // later capture: partial overlap

  EXPECT_EQ(store.logical_bytes(),
            2 * first.bytes.size() + second.bytes.size());
  EXPECT_LT(store.stored_bytes(), store.logical_bytes());
  EXPECT_EQ(store.deduped_bytes(),
            store.logical_bytes() - store.stored_bytes());
  EXPECT_GE(store.deduped_bytes(), first.bytes.size() / 2)
      << "an identical image shared almost nothing";

  // Releasing one referent must not corrupt the survivors' shared chunks.
  store.erase(0);
  const auto twin = store.get(1);
  ASSERT_TRUE(twin.ok());
  EXPECT_EQ(twin.value().bytes, first.bytes);
  const auto later = store.get(2);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later.value().bytes, second.bytes);
}

TEST_F(ImageStoreTest, RejectsCorruptImages) {
  ImageStore store;
  auto image = capture_after(kSecond);
  image.bytes[image.bytes.size() / 2] ^= 0xff;
  EXPECT_FALSE(store.put(3, image).ok());
  EXPECT_FALSE(store.contains(3));
  EXPECT_EQ(store.logical_bytes(), 0u);
}

TEST_F(ImageStoreTest, SpillToDiskAndReloadBitExact) {
  ImageStore::Config config;
  config.spill_dir = ::testing::TempDir();
  ImageStore store(config);
  const auto image = capture_after(kSecond);
  ASSERT_TRUE(store.put(5, image).ok());
  ASSERT_TRUE(store.spill(5).ok());
  EXPECT_TRUE(store.contains(5));
  EXPECT_EQ(store.logical_bytes(), 0u) << "spilled image still in memory";

  const auto got = store.get(5);
  ASSERT_TRUE(got.ok()) << got.error().message;
  EXPECT_EQ(got.value().bytes, image.bytes);
  EXPECT_EQ(got.value().captured_at, image.captured_at);
  std::remove((config.spill_dir + "/img-5.hwsn").c_str());
}

// The store's accounting attributes the 16-byte container header and each
// chunk's 12-byte framing to the image, so an image sharing nothing costs
// exactly its encoded size.
TEST_F(ImageStoreTest, UnsharedImageStoresItsEncodedSize) {
  snapshot::Writer w;
  w.begin_chunk(snapshot::tag("META")).u64(42);
  w.end_chunk();
  w.begin_chunk(snapshot::tag("AAAA")).u32(7);
  w.end_chunk();
  ByteWriter& c = w.begin_chunk(snapshot::tag("BBBB"));
  c.u64(1);
  c.u64(2);
  w.end_chunk();
  const snapshot::SnapshotImage image{std::move(w).finish(), 42};

  ImageStore store;
  ASSERT_TRUE(store.put(1, image).ok());
  EXPECT_EQ(store.stored_bytes(), image.bytes.size());
  EXPECT_EQ(store.logical_bytes(), image.bytes.size());
  EXPECT_EQ(store.deduped_bytes(), 0u);

  // A router image with pooling off shares nothing either.
  ImageStore::Config config;
  config.dedup = false;
  ImageStore plain(config);
  const auto captured = capture_after(kSecond);
  ASSERT_TRUE(plain.put(2, captured).ok());
  EXPECT_EQ(plain.stored_bytes(), captured.bytes.size());
}

// A spilled image is read back from disk, so it is untrusted again: a
// flipped payload byte in the file must fail the wake, and the entry must
// survive for a later, intact retry.
TEST_F(ImageStoreTest, CorruptSpillFileIsRejectedOnWake) {
  ImageStore::Config config;
  config.spill_dir = ::testing::TempDir();
  ImageStore store(config);
  const auto image = capture_after(kSecond);
  ASSERT_TRUE(store.put(6, image).ok());
  ASSERT_TRUE(store.spill(6).ok());

  const std::string path = config.spill_dir + "/img-6.hwsn";
  Bytes bytes = image.bytes;
  bytes[bytes.size() - 1] ^= 0x01;  // inside the last chunk's payload
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  const auto got = store.get(6);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().message.find("checksum"), std::string::npos)
      << got.error().message;
  EXPECT_TRUE(store.contains(6));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ResidencyManager policy

TEST(ResidencyManager, WatermarkThenCapLruWithIdTieBreak) {
  ResidencyPolicy policy;
  policy.max_resident = 2;
  policy.idle_watermark = 10 * kSecond;
  ResidencyManager mgr(policy);
  mgr.reset(5, /*now=*/0);

  // Activity: 3 and 4 recently touched; 0/1/2 idle past the watermark.
  mgr.touch(3, 14 * kSecond);
  mgr.touch(4, 15 * kSecond);
  // Watermark pass takes 0, 1, 2 (idle 20 s, tie broken by id). The cap
  // pass has nothing left to do: two residents remain.
  EXPECT_EQ(mgr.select_evictions(20 * kSecond),
            (std::vector<std::size_t>{0, 1, 2}));

  // Same record state, earlier barrier: nobody past the watermark, so the
  // cap pass evicts least-recently-active first — 0, 1, 2 by id tie-break
  // (all last active at 0).
  EXPECT_EQ(mgr.select_evictions(9 * kSecond),
            (std::vector<std::size_t>{0, 1, 2}));

  // Pinned homes are never selected but still count toward the cap: with 0
  // pinned, the watermark pass takes 1 and 2, and the survivors {0, 3, 4}
  // still exceed the cap, so the cap pass evicts the least-recently-active
  // unpinned survivor (3).
  mgr.set_pinned(0, true);
  EXPECT_EQ(mgr.select_evictions(20 * kSecond),
            (std::vector<std::size_t>{1, 2, 3}));
  mgr.set_pinned(0, false);

  // The decision is a pure function: same inputs, same answer.
  EXPECT_EQ(mgr.select_evictions(20 * kSecond),
            mgr.select_evictions(20 * kSecond));
}

TEST(ResidencyManager, DueWakeupsFollowNextEventTime) {
  ResidencyPolicy policy;
  policy.max_resident = 1;
  ResidencyManager mgr(policy);
  mgr.reset(3, 0);
  mgr.on_hibernated(1, kSecond, 4 * kSecond);
  mgr.on_hibernated(2, kSecond, ResidencyManager::kNever);
  EXPECT_EQ(mgr.resident_count(), 1u);
  EXPECT_EQ(mgr.next_wakeup(1), 4 * kSecond);

  EXPECT_TRUE(mgr.due_wakeups(3 * kSecond).empty());
  EXPECT_EQ(mgr.due_wakeups(4 * kSecond), (std::vector<std::size_t>{1}));
  EXPECT_EQ(mgr.due_wakeups(40 * kSecond), (std::vector<std::size_t>{1}))
      << "a home with no pending events must never wake on due";

  mgr.on_resumed(1, 4 * kSecond, 1000);
  EXPECT_EQ(mgr.resident_count(), 2u);
  EXPECT_TRUE(mgr.due_wakeups(40 * kSecond).empty());

  ResidencyPolicy off = policy;
  off.wake_on_due = false;
  ResidencyManager quiet(off);
  quiet.reset(2, 0);
  quiet.on_hibernated(0, kSecond, 2 * kSecond);
  EXPECT_TRUE(quiet.due_wakeups(10 * kSecond).empty());
}

TEST(FleetProfile, SharedTablesMatchHistoricalDerivation) {
  const auto profile = FleetProfile::build(/*fleet_seed=*/42, /*homes=*/4,
                                           /*devices_per_home=*/3);
  ASSERT_EQ(profile->home_seeds.size(), 4u);
  ASSERT_EQ(profile->device_specs.size(), 4u);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_EQ(profile->home_seeds[h], FleetProfile::home_seed(42, h));
    const auto derived =
        FleetProfile::derive_devices(profile->home_seeds[h], 3);
    ASSERT_EQ(profile->device_specs[h].size(), derived.size());
    for (std::size_t d = 0; d < derived.size(); ++d) {
      EXPECT_EQ(profile->device_specs[h][d].name, derived[d].name);
    }
  }
  // Neighbouring homes decorrelate even for tiny fleet seeds.
  EXPECT_NE(profile->home_seeds[0], profile->home_seeds[1]);
}

TEST(FleetProfile, PerHomeSeedsAreStableAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::size_t id = 0; id < 1000; ++id) {
    const std::uint64_t s = FleetProfile::home_seed(2011, id);
    EXPECT_EQ(s, FleetProfile::home_seed(2011, id)) << "unstable for home " << id;
    EXPECT_TRUE(seeds.insert(s).second) << "seed collision at home " << id;
    EXPECT_NE(s, 0u);
  }
  // Different fleet seeds shift every home.
  EXPECT_NE(FleetProfile::home_seed(2011, 7), FleetProfile::home_seed(2012, 7));
}

TEST(EventLoop, NextEventAtReportsEarliestPending) {
  sim::EventLoop loop;
  EXPECT_EQ(loop.next_event_at(), sim::EventLoop::kNoEvent);
  loop.schedule_at(7 * kSecond, [] {});
  loop.schedule_at(3 * kSecond, [] {});
  EXPECT_EQ(loop.next_event_at(), 3 * kSecond);
}

}  // namespace
}  // namespace hw::residency

// ---------------------------------------------------------------------------
// LiveFleet integration: hibernate cold homes, page back on demand

namespace hw::live {
namespace {

using residency::ResidencyManager;

constexpr Duration kBootSettle = 10 * kMillisecond;

LiveConfig residency_config(std::size_t homes, std::size_t threads) {
  LiveConfig cfg;
  cfg.homes = homes;
  cfg.threads = threads;
  cfg.seed = 7;
  cfg.attack.kind = LiveAttack::Kind::DhcpFlood;
  cfg.attack.home = 0;
  // Flood offers are held short enough that the reclaim sweep fires inside
  // the test window — including while their home is hibernated.
  cfg.dhcp_offer_hold = 2 * kSecond;
  // Every home carries ~1 s periodic maintenance timers, so due-wakeups
  // would page a hibernated home straight back in. Sleeping through the
  // timers (closed world, catch-up on wake) is the interesting regime.
  cfg.residency.wake_on_due = false;
  return cfg;
}

/// Runs `cfg` to `end` applying `schedule` (virtual time -> mutation); the
/// mutations are submitted one barrier ahead so they land at exactly their
/// scheduled virtual barrier regardless of thread count.
std::map<std::string, double> run_schedule(
    LiveConfig cfg, const std::vector<std::pair<Timestamp, Mutation>>& schedule,
    Timestamp end) {
  LiveFleet fleet(cfg);
  fleet.start();
  std::size_t next = 0;
  while (fleet.now() < end) {
    while (next < schedule.size() &&
           fleet.next_barrier() == schedule[next].first) {
      fleet.submit(schedule[next].second);
      ++next;
    }
    fleet.step();
  }
  // Frozen scalars speak for their hibernation barrier; bring every
  // hibernated home current before fingerprinting.
  fleet.refresh_telemetry();
  return fleet.fingerprint();
}

// The property: ANY schedule of hibernate/wake verbs landing on the aligned
// grid leaves merged telemetry bit-identical to the always-resident run, at
// 1, 2 and 8 worker threads. Wake catch-up replays each hibernated home's
// missed virtual time, and the world is closed, so residency scheduling is
// invisible to the fingerprint.
TEST(LiveFleetResidency, RandomHibernateWakeScheduleIsFingerprintInvisible) {
  constexpr std::size_t kHomes = 4;
  const Timestamp kEnd = kBootSettle + 3 * LiveFleet::kCheckpointAlign;

  // Seeded random schedule: at every aligned barrier, flip a coin per home
  // between hibernate and wake (redundant verbs are no-ops, so the schedule
  // needs no validity bookkeeping).
  Rng rng(2011);
  std::vector<std::pair<Timestamp, Mutation>> schedule;
  for (std::size_t k = 1; k <= 2; ++k) {
    const Timestamp barrier = kBootSettle + k * LiveFleet::kCheckpointAlign;
    for (std::uint32_t home = 0; home < kHomes; ++home) {
      if (rng.chance(0.5)) {
        schedule.emplace_back(barrier, hibernate_home(home));
      } else if (rng.chance(0.5)) {
        schedule.emplace_back(barrier, wake_home(home));
      }
    }
  }
  ASSERT_FALSE(schedule.empty()) << "seed produced an empty schedule";

  const auto baseline =
      run_schedule(residency_config(kHomes, 1), {}, kEnd);
  // The flood's short-held offers were reclaimed during the window — the
  // very state machines hibernation must not disturb.
  ASSERT_GT(baseline.at("homework.dhcp.offers_expired"), 0.0);
  ASSERT_GT(baseline.at("homework.dhcp.expired") +
                baseline.at("homework.forwarding.flows_installed"),
            0.0);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    const auto fp =
        run_schedule(residency_config(kHomes, threads), schedule, kEnd);
    EXPECT_EQ(fp, baseline)
        << threads << " threads diverged:\n"
        << hw::residency::diff_maps(fp, baseline);
  }
}

// The offer-expiry regression, explicitly: home 0 hibernates before its
// flood offers' hold elapses and wakes after; the reclaim sweep must fire
// during catch-up at its recorded virtual time, not at wake time.
TEST(LiveFleetResidency, DhcpOfferExpiryFiresAcrossHibernationWindow) {
  const Timestamp kEnd = kBootSettle + 3 * LiveFleet::kCheckpointAlign;
  const std::vector<std::pair<Timestamp, Mutation>> schedule = {
      {kBootSettle + LiveFleet::kCheckpointAlign, hibernate_home(0)},
      {kBootSettle + 2 * LiveFleet::kCheckpointAlign, wake_home(0)},
  };
  const auto baseline = run_schedule(residency_config(2, 1), {}, kEnd);
  const auto fp = run_schedule(residency_config(2, 1), schedule, kEnd);
  ASSERT_GT(baseline.at("homework.dhcp.offers_expired"), 0.0);
  EXPECT_EQ(fp, baseline) << hw::residency::diff_maps(fp, baseline);
}

TEST(LiveFleetResidency, HibernatedHomeStaysObservable) {
  LiveFleet fleet(residency_config(2, 2));
  fleet.start();
  fleet.advance_to(2 * kSecond);
  const auto before = fleet.scalars(1);
  const std::string mac = fleet.device_mac(1, "laptop");

  fleet.submit(hibernate_home(1));
  fleet.advance_to(kBootSettle + LiveFleet::kCheckpointAlign);
  ASSERT_TRUE(fleet.residency().hibernated(1));
  EXPECT_EQ(fleet.residency().resident_count(), 1u);
  EXPECT_TRUE(fleet.image_store().contains(1));
  EXPECT_GT(fleet.image_store().stored_bytes(), 0u);

  // Status, scalars and device identity keep answering from frozen state.
  const LiveHomeStatus status = fleet.status(1);
  EXPECT_TRUE(status.hibernated);
  EXPECT_GT(status.devices, 0u);
  const auto frozen = fleet.scalars(1);
  EXPECT_GE(frozen.size(), before.size());
  EXPECT_EQ(fleet.device_mac(1, "laptop"), mac);
  EXPECT_FALSE(fleet.status(0).hibernated);

  // An external stimulus pages it back in at the next barrier.
  fleet.touch(1);
  fleet.step();
  EXPECT_FALSE(fleet.residency().hibernated(1));
  EXPECT_FALSE(fleet.image_store().contains(1))
      << "resident home left a stale image behind";
  EXPECT_FALSE(fleet.status(1).hibernated);
}

// A checkpoint taken while part of the fleet sleeps stitches stored images
// (restamped to the checkpoint's capture tag) together with live captures —
// and the result replays bit-identically.
TEST(LiveFleetResidency, MixedCheckpointReplaysBitIdentical) {
  const LiveConfig cfg = residency_config(4, 2);
  LiveFleet fleet(cfg);
  fleet.start();
  fleet.submit(hibernate_home(2));
  fleet.submit(hibernate_home(3));
  fleet.advance_to(kBootSettle + LiveFleet::kCheckpointAlign);
  ASSERT_TRUE(fleet.residency().hibernated(2));
  ASSERT_TRUE(fleet.residency().hibernated(3));

  fleet.submit(checkpoint());
  fleet.advance_to(kBootSettle + 2 * LiveFleet::kCheckpointAlign);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);
  const FleetCheckpoint& cp = fleet.checkpoints()[0];
  ASSERT_EQ(cp.images.size(), 4u);
  // The sleeping homes' images are their hibernation-time captures.
  EXPECT_LT(cp.images[2].captured_at, cp.captured_at);
  EXPECT_EQ(cp.images[0].captured_at, cp.captured_at);

  fleet.advance_to(kBootSettle + 3 * LiveFleet::kCheckpointAlign);
  fleet.refresh_telemetry();
  const auto live_fp = fleet.fingerprint();
  for (const std::size_t threads : {1u, 2u}) {
    auto replayed = LiveFleet::replay_fingerprint(cfg, cp, fleet.log(),
                                                  fleet.now(), threads);
    ASSERT_TRUE(replayed.ok()) << replayed.error().message;
    EXPECT_EQ(replayed.value(), live_fp)
        << hw::residency::diff_maps(replayed.value(), live_fp);
  }
}

/// `image` restamped the way with_capture_tag once built it: every chunk
/// re-emitted through a Writer, which hashes each one again.
Bytes restamp_through_writer(const Bytes& image, const snapshot::CaptureTag& tag) {
  auto reader = snapshot::Reader::parse(image);
  EXPECT_TRUE(reader.ok());
  snapshot::Writer w;
  for (const snapshot::Reader::Chunk& chunk : reader.value().chunks()) {
    ByteWriter& c = w.begin_chunk(chunk.tag);
    if (chunk.tag == snapshot::tag("FTAG")) {
      c.u64(tag.capture_id);
      c.u32(tag.member);
      c.u32(tag.members);
    } else {
      c.raw(chunk.payload);
    }
    w.end_chunk();
  }
  return std::move(w).finish();
}

// The restamp frames the untouched chunks with their verified CRCs; the
// image it builds is the one a full Writer rebuild gives, byte for byte,
// for the stored and the live members of a mixed checkpoint alike.
TEST(LiveFleetResidency, CaptureTagRestampMatchesAWriterRebuild) {
  LiveFleet fleet(residency_config(4, 2));
  fleet.start();
  fleet.submit(hibernate_home(2));
  fleet.submit(hibernate_home(3));
  fleet.advance_to(kBootSettle + LiveFleet::kCheckpointAlign);
  fleet.submit(checkpoint());
  fleet.advance_to(kBootSettle + 2 * LiveFleet::kCheckpointAlign);
  ASSERT_EQ(fleet.checkpoints().size(), 1u);
  const FleetCheckpoint& cp = fleet.checkpoints()[0];
  ASSERT_EQ(cp.images.size(), 4u);
  ASSERT_LT(cp.images[2].captured_at, cp.captured_at);
  for (std::uint32_t i = 0; i < cp.images.size(); ++i) {
    const Bytes& image = cp.images[i].bytes;
    const snapshot::CaptureTag next{cp.capture_id + 7, i, 4};
    auto got = snapshot::with_capture_tag(image, next);
    ASSERT_TRUE(got.ok()) << got.error().message;
    EXPECT_EQ(got.value(), restamp_through_writer(image, next)) << "home " << i;
    EXPECT_NE(got.value(), image);
    // Restamping with the tag the image holds gives the image back.
    auto same = snapshot::with_capture_tag(
        image, snapshot::CaptureTag{cp.capture_id, i, 4});
    ASSERT_TRUE(same.ok());
    EXPECT_EQ(same.value(), image) << "home " << i;
  }
}

TEST(LiveFleetResidency, PolicyEvictsIdleHomesAndCountsPeak) {
  LiveConfig cfg = residency_config(4, 2);
  cfg.residency.max_resident = 1;
  cfg.residency.idle_watermark = kSecond;
  cfg.residency.wake_on_due = false;
  LiveFleet fleet(cfg);
  fleet.start();
  EXPECT_EQ(fleet.resident_peak(), 4u);
  fleet.advance_to(kBootSettle + LiveFleet::kCheckpointAlign);
  // All four idle past the watermark; the cap holds nobody above it.
  EXPECT_EQ(fleet.residency().resident_count(), 0u);
  EXPECT_EQ(fleet.image_store().size(), 4u);

  // Waking one home leaves the rest asleep.
  fleet.submit(wake_home(2));
  fleet.advance_to(kBootSettle + LiveFleet::kCheckpointAlign + kSecond);
  EXPECT_FALSE(fleet.residency().hibernated(2));
  EXPECT_EQ(fleet.residency().resident_count(), 1u);
  fleet.refresh_telemetry();
  EXPECT_FALSE(fleet.fingerprint().empty());
}

// ---------------------------------------------------------------------------
// Operator plane: hibernate/wake verbs and subscription touch

struct ResidencyLinkFixture : ::testing::Test {
  ResidencyLinkFixture() : fleet(residency_config(2, 2)), link(op_loop, fleet) {
    fleet.start();
  }

  LiveClient& make_client() {
    hwdb::rpc::RetryPolicy policy;
    policy.max_attempts = 5;
    policy.timeout = 50 * kMillisecond;
    policy.backoff_base = 10 * kMillisecond;
    clients.push_back(std::make_unique<LiveClient>(link.make_client(policy)));
    return *clients.back();
  }

  void pump() {
    link.server().pump();
    op_loop.run_for(10 * kMillisecond);
  }

  sim::EventLoop op_loop;
  LiveFleet fleet;
  InProcLiveLink link;
  std::vector<std::unique_ptr<LiveClient>> clients;
};

TEST_F(ResidencyLinkFixture, HibernateAndWakeVerbsRoundTrip) {
  LiveClient& client = make_client();
  bool ok = false;
  Timestamp applied_at = 0;
  client.mutate(hibernate_home(1),
                [&](bool mutation_ok, Timestamp at, std::string) {
                  ok = mutation_ok;
                  applied_at = at;
                });
  op_loop.run_for(10 * kMillisecond);
  ASSERT_TRUE(ok);
  // Hibernations land on the checkpoint-aligned grid, like captures.
  EXPECT_EQ(applied_at, kBootSettle + LiveFleet::kCheckpointAlign);

  while (fleet.now() < applied_at) pump();
  ASSERT_TRUE(fleet.residency().hibernated(1));

  ok = false;
  client.mutate(wake_home(1), [&](bool mutation_ok, Timestamp, std::string) {
    ok = mutation_ok;
  });
  op_loop.run_for(10 * kMillisecond);
  ASSERT_TRUE(ok);
  pump();
  EXPECT_FALSE(fleet.residency().hibernated(1));
}

TEST_F(ResidencyLinkFixture, SubscriptionTouchPagesHomeBackIn) {
  LiveClient& client = make_client();
  client.mutate(hibernate_home(0));
  op_loop.run_for(10 * kMillisecond);
  while (fleet.now() < kBootSettle + LiveFleet::kCheckpointAlign) pump();
  ASSERT_TRUE(fleet.residency().hibernated(0));

  // Subscribing to the sleeping home's series is an external stimulus: the
  // operator wants live data, so the home pages back in.
  std::uint64_t sub_id = 0;
  client.subscribe_series("live.home.*", 0, 1, 64,
                          [&](Result<std::uint64_t> r) {
                            ASSERT_TRUE(r.ok()) << r.error().message;
                            sub_id = r.value();
                          });
  op_loop.run_for(10 * kMillisecond);
  ASSERT_NE(sub_id, 0u);
  pump();
  EXPECT_FALSE(fleet.residency().hibernated(0));

  // And the stream serves the woken home's live values.
  for (int i = 0; i < 4; ++i) pump();
  const View* v = client.view(sub_id);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->synced);
  EXPECT_FALSE(v->values.empty());
}

}  // namespace
}  // namespace hw::live
