// Checkpoint/restore suite: the chunked-TLV codec's validation surface
// (every truncation, every single-byte flip), the coordinator's layer walk
// over a live home (capture → restore into a freshly booted router), warm
// restart refilling the datapath flow table from the last image, the
// crash-restart-restore fault, and atomic file persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "homework/router.hpp"
#include "hwdb/value.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"

namespace hw::snapshot {
namespace {

// ---------------------------------------------------------------------------
// Codec

TEST(SnapshotCodec, RoundTripMultiChunk) {
  Writer w;
  ByteWriter& a = w.begin_chunk(tag("AAAA"));
  a.u64(7);
  a.u32(9);
  w.end_chunk();
  ByteWriter& b = w.begin_chunk(tag("BBBB"));
  put_string(b, "hello");
  put_mac(b, MacAddress::from_index(42));
  put_ip(b, Ipv4Address{192, 168, 1, 5});
  w.end_chunk();
  w.begin_chunk(tag("AAAA")).u64(8);  // repeated tag, image order kept
  w.end_chunk();
  const Bytes image = std::move(w).finish();

  auto r = Reader::parse(image);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().chunk_count(), 3u);

  const Bytes* bb = r.value().find(tag("BBBB"));
  ASSERT_NE(bb, nullptr);
  ByteReader br(*bb);
  EXPECT_EQ(get_string(br).value(), "hello");
  EXPECT_EQ(get_mac(br).value(), MacAddress::from_index(42));
  EXPECT_EQ(get_ip(br).value(), (Ipv4Address{192, 168, 1, 5}));

  const auto all = r.value().find_all(tag("AAAA"));
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(ByteReader(*all[0]).u64().value(), 7u);
  EXPECT_EQ(ByteReader(*all[1]).u64().value(), 8u);

  // Unknown tags read as absent, never as an error.
  EXPECT_EQ(r.value().find(tag("ZZZZ")), nullptr);
}

TEST(SnapshotCodec, RejectsEveryTruncation) {
  Writer w;
  w.begin_chunk(tag("DATA")).u64(0x1122334455667788ull);
  w.end_chunk();
  const Bytes image = std::move(w).finish();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const Bytes prefix(image.begin(), image.begin() + static_cast<long>(len));
    EXPECT_FALSE(Reader::parse(prefix).ok()) << "accepted " << len << " bytes";
  }
  // Trailing garbage is a torn image too, not padding.
  Bytes padded = image;
  padded.push_back(0);
  EXPECT_FALSE(Reader::parse(padded).ok());
}

TEST(SnapshotCodec, RejectsEverySingleByteFlip) {
  Writer w;
  ByteWriter& c = w.begin_chunk(tag("DATA"));
  put_string(c, "state that must never be half-trusted");
  w.end_chunk();
  w.begin_chunk(tag("MORE")).u32(12345);
  w.end_chunk();
  const Bytes image = std::move(w).finish();
  for (std::size_t i = 0; i < image.size(); ++i) {
    Bytes bad = image;
    bad[i] ^= 0x01;
    EXPECT_FALSE(Reader::parse(bad).ok()) << "accepted flip at offset " << i;
  }
}

TEST(SnapshotCodec, HelperDecodersFailCleanlyOnShortInput) {
  ByteWriter w;
  put_string(w, "abc");
  Bytes bytes = std::move(w).take();
  bytes.pop_back();  // truncate inside the string body
  ByteReader r(bytes);
  EXPECT_FALSE(get_string(r).ok());

  ByteReader empty{std::span<const std::uint8_t>{}};
  EXPECT_FALSE(get_mac(empty).ok());
  EXPECT_FALSE(get_ip(empty).ok());
}

// ---------------------------------------------------------------------------
// A small live home to snapshot: booted router, two bound devices, a few
// forwarding flows, hwdb rows from the export modules, a policy document.

struct Rig {
  Rig() : rng(7), router(loop, rng, config(), registry) {
    router.start();
    a = attach("laptop", 1);
    b = attach("phone", 2);
    bind(*a);
    bind(*b);
    // Kick real traffic through the datapath so the flow table fills.
    a->send_udp(Ipv4Address{93, 184, 216, 34}, 1000, 80, 64);
    b->send_udp(Ipv4Address{93, 184, 216, 34}, 1001, 443, 64);
    loop.run_for(2 * kSecond);  // export polls fill hwdb tables

    policy::PolicyDocument doc;
    doc.id = "no-video";
    doc.who.tags = {"kids"};
    doc.sites.kind = policy::SiteRuleKind::Block;
    doc.sites.domains = {"video.netflix.com"};
    router.policy().install(doc);
    router.policy().set_tags("aa:bb", {"kids"});
  }

  static homework::HomeworkRouter::Config config() {
    homework::HomeworkRouter::Config c;
    c.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
    return c;
  }

  sim::Host* attach(const std::string& name, std::uint32_t idx) {
    sim::Host::Config hc;
    hc.name = name;
    hc.mac = MacAddress::from_index(idx);
    hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    router.attach_device(*hosts.back(), std::nullopt);
    return hosts.back().get();
  }

  void bind(sim::Host& host) {
    host.start_dhcp();
    const Timestamp deadline = loop.now() + 5 * kSecond;
    while (loop.now() < deadline && !host.ip()) loop.run_for(50 * kMillisecond);
    ASSERT_TRUE(host.ip().has_value());
  }

  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scope{registry};
  sim::EventLoop loop;
  Rng rng;
  homework::HomeworkRouter router;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
};

TEST(SnapshotCoordinator, CaptureRestoresEveryLayerIntoAFreshHome) {
  Rig first;
  const SnapshotImage image = first.router.snapshots().capture();
  EXPECT_EQ(image.captured_at, first.loop.now());
  EXPECT_GT(image.bytes.size(), 100u);
  EXPECT_GT(first.registry.total("snapshot.captures").value_or(0), 0.0);

  const std::size_t flows = first.router.datapath().table().size();
  const std::size_t metrics_rows = first.router.db().table("Metrics")->size();
  ASSERT_GT(flows, 0u);
  ASSERT_GT(metrics_rows, 0u);

  // A freshly booted home (no devices ever attached) adopts the image.
  telemetry::MetricRegistry reg2;
  telemetry::ScopedMetricRegistry scope2(reg2);
  sim::EventLoop loop2;
  Rng rng2(99);
  homework::HomeworkRouter router2(loop2, rng2, Rig::config(), reg2);
  router2.start();
  auto restored = router2.snapshots().restore(image);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_GT(reg2.total("snapshot.restores").value_or(0), 0.0);

  // Flow table, hwdb contents, registry records with leases, policy docs.
  EXPECT_EQ(router2.datapath().table().size(), flows);
  EXPECT_EQ(router2.db().table("Metrics")->size(), metrics_rows);
  EXPECT_EQ(router2.registry().size(), first.router.registry().size());
  const auto* rec = router2.registry().find(first.a->mac());
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->lease.has_value());
  EXPECT_EQ(rec->lease->ip, first.a->ip());
  ASSERT_EQ(router2.policy().policies().size(), 1u);
  EXPECT_EQ(router2.policy().policies()[0]->id, "no-video");
  EXPECT_EQ(router2.policy().tags_of("aa:bb"),
            std::vector<std::string>{"kids"});

  // DHCP allocations survived: the same MAC discovering again gets the same
  // address back from the restored pool.
  sim::Host::Config hc;
  hc.name = "laptop-after-restore";
  hc.mac = first.a->mac();
  sim::Host again(loop2, hc, rng2);
  router2.attach_device(again, std::nullopt);
  again.start_dhcp();
  loop2.run_for(2 * kSecond);
  ASSERT_TRUE(again.ip().has_value());
  EXPECT_EQ(again.ip(), first.a->ip());
}

TEST(SnapshotCoordinator, CorruptImageRejectedAtEveryOffsetWithoutSideEffects) {
  Rig rig;
  const SnapshotImage image = rig.router.snapshots().capture();
  const std::size_t flows = rig.router.datapath().table().size();
  ASSERT_GT(flows, 0u);

  for (std::size_t i = 0; i < image.bytes.size(); ++i) {
    Bytes bad = image.bytes;
    bad[i] ^= 0x40;
    EXPECT_FALSE(rig.router.snapshots().restore(bad).ok())
        << "accepted corrupt image, flip at offset " << i;
  }
  EXPECT_EQ(rig.registry.total("snapshot.corrupt_rejected").value_or(0),
            static_cast<double>(image.bytes.size()));
  EXPECT_EQ(rig.registry.total("snapshot.restores").value_or(0), 0.0);

  // No layer was touched: recapturing at the same virtual instant yields a
  // byte-identical image.
  EXPECT_EQ(rig.router.snapshots().capture().bytes, image.bytes);
  EXPECT_EQ(rig.router.datapath().table().size(), flows);
}

/// `image` re-encoded with only its META and hwdb chunks plus `bad`, one
/// more HTBL chunk, last: the hwdb layer is the only one with anything to
/// restore, and every table ahead of the bad one is well formed.
Bytes with_bad_table(const Bytes& image, const Bytes& bad) {
  auto reader = Reader::parse(image);
  EXPECT_TRUE(reader.ok());
  Writer w;
  reader.value().for_each_chunk([&](std::uint32_t chunk_tag,
                                    const Bytes& payload) {
    if (chunk_tag == tag("META") || chunk_tag == tag("HTBL") ||
        chunk_tag == tag("HMET")) {
      w.begin_chunk(chunk_tag).raw(payload);
      w.end_chunk();
    }
  });
  w.begin_chunk(tag("HTBL")).raw(bad);
  w.end_chunk();
  return std::move(w).finish();
}

/// The head of an HTBL chunk for a (name, kind, value) table the rig does
/// not have; the string table follows.
ByteWriter bad_table_head() {
  ByteWriter c;
  put_string(c, "Trailer");
  c.u64(64);  // capacity
  c.u64(1);   // inserted
  c.u64(0);   // evicted
  c.u32(3);
  for (const char* column : {"name", "kind"}) {
    put_string(c, column);
    c.u8(static_cast<std::uint8_t>(hwdb::ColumnType::Text));
  }
  put_string(c, "value");
  c.u8(static_cast<std::uint8_t>(hwdb::ColumnType::Real));
  return c;
}

/// Restores `bad` (built from an image older than the rig's state): the
/// restore must fail as corrupt and leave every layer as it was, including
/// the well-formed tables decoded ahead of the bad one.
void expect_rejected_untouched(Rig& rig, const Bytes& bad) {
  const SnapshotImage reference = rig.router.snapshots().capture();
  EXPECT_FALSE(rig.router.snapshots().restore(bad).ok());
  EXPECT_EQ(rig.registry.total("snapshot.corrupt_rejected").value_or(0), 1.0);
  EXPECT_EQ(rig.registry.total("snapshot.restores").value_or(0), 0.0);
  EXPECT_EQ(rig.router.snapshots().capture().bytes, reference.bytes);
}

TEST(SnapshotCoordinator, HwdbStringIdOutOfRangeRejectedWithoutSideEffects) {
  Rig rig;
  const SnapshotImage older = rig.router.snapshots().capture();
  rig.loop.run_for(2 * kSecond);  // the Metrics table moves on

  ByteWriter c = bad_table_head();
  c.u32(1);  // one string...
  put_string(c, "counter");
  c.u32(1);  // ...and one row whose name refers to a second
  c.u64(older.captured_at);
  c.u8(static_cast<std::uint8_t>(hwdb::ColumnType::Text));
  c.u32(1);
  c.u8(static_cast<std::uint8_t>(hwdb::ColumnType::Text));
  c.u32(0);
  c.u8(static_cast<std::uint8_t>(hwdb::ColumnType::Real));
  c.u64(0);
  expect_rejected_untouched(rig, with_bad_table(older.bytes, c.bytes()));
}

TEST(SnapshotCoordinator, HwdbStringCountPastChunkEndRejectedWithoutSideEffects) {
  Rig rig;
  const SnapshotImage older = rig.router.snapshots().capture();
  rig.loop.run_for(2 * kSecond);

  ByteWriter c = bad_table_head();
  c.u32(0xfffffff0u);  // far more strings than bytes left in the chunk
  put_string(c, "counter");
  expect_rejected_untouched(rig, with_bad_table(older.bytes, c.bytes()));
}

TEST(SnapshotCoordinator, WarmRestartRefillsTheFlowTable) {
  Rig rig;
  (void)rig.router.snapshots().capture();
  const std::size_t flows = rig.router.datapath().table().size();
  ASSERT_GT(flows, 0u);

  auto s = rig.router.warm_restart();
  ASSERT_TRUE(s.ok()) << s.error().message;
  EXPECT_EQ(rig.router.datapath().table().size(), flows);
  EXPECT_FALSE(rig.router.datapath().fail_safe());

  // Established traffic keeps flowing on the restored entries.
  const auto before = rig.registry.total("sim.link.tx_frames").value_or(0);
  rig.a->send_udp(Ipv4Address{93, 184, 216, 34}, 1000, 80, 64);
  rig.loop.run_for(100 * kMillisecond);
  EXPECT_GT(rig.registry.total("sim.link.tx_frames").value_or(0), before);
}

TEST(SnapshotCoordinator, WarmRestartWithoutImageIsACleanColdStart) {
  Rig rig;
  ASSERT_GT(rig.router.datapath().table().size(), 0u);
  ASSERT_FALSE(rig.router.snapshots().last_image().has_value());
  EXPECT_TRUE(rig.router.warm_restart().ok());
  EXPECT_EQ(rig.router.datapath().table().size(), 0u);  // cold wipe
}

TEST(SnapshotFaults, CrashRestartRestoreFaultRestoresFromLastCheckpoint) {
  Rig rig;
  rig.router.snapshots().start_periodic_captures(
      kSecond, {}, homework::HomeworkRouter::kBootSettle);

  sim::FaultInjector faults(rig.loop);
  rig.router.attach_faults(faults);
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.windows.push_back(
      {sim::FaultKind::CrashRestartRestore, rig.loop.now() + 3 * kSecond, 0,
       "*", 0.0, {}});
  faults.arm(plan);
  rig.loop.run_for(4 * kSecond);

  EXPECT_EQ(faults.stats().crash_restores.value(), 1u);
  EXPECT_EQ(faults.stats().active.value(), 0);
  EXPECT_GT(rig.registry.total("snapshot.captures").value_or(0), 0.0);
  EXPECT_GT(rig.router.datapath().table().size(), 0u)
      << "crash-restart-restore left the flow table cold";
  EXPECT_FALSE(rig.router.datapath().fail_safe());
}

TEST(SnapshotCoordinator, PeriodicCapturesLandOnThePhaseGrid) {
  Rig rig;
  std::vector<Timestamp> at;
  rig.router.snapshots().start_periodic_captures(
      kSecond, [&](const SnapshotImage& img) { at.push_back(img.captured_at); },
      homework::HomeworkRouter::kBootSettle);
  rig.loop.run_until(6 * kSecond);
  ASSERT_GE(at.size(), 2u);
  for (const Timestamp t : at) {
    EXPECT_EQ((t - homework::HomeworkRouter::kBootSettle) % kSecond, 0u)
        << "capture off the k*interval+settle grid at t=" << t;
  }
  rig.router.snapshots().stop_periodic_captures();
  const std::size_t captured = at.size();
  rig.loop.run_for(2 * kSecond);
  EXPECT_EQ(at.size(), captured);
}

TEST(SnapshotFiles, AtomicWriteThenReadRoundTrip) {
  Rig rig;
  const SnapshotImage image = rig.router.snapshots().capture();
  const std::string path = ::testing::TempDir() + "/hw_snapshot_test.bin";

  ASSERT_TRUE(SnapshotCoordinator::write_file(path, image).ok());
  auto back = SnapshotCoordinator::read_file(path);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().bytes, image.bytes);
  EXPECT_EQ(back.value().captured_at, image.captured_at);
  // No temp residue after a successful rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  // A torn file on disk is rejected, not half-restored.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(image.bytes.data(), 1, image.bytes.size() / 2, f);
  std::fclose(f);
  EXPECT_FALSE(SnapshotCoordinator::read_file(path).ok());

  std::remove(path.c_str());
  EXPECT_FALSE(SnapshotCoordinator::read_file(path).ok());
}

}  // namespace
}  // namespace hw::snapshot
