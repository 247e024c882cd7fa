// The UDP-based RPC interface: wire codec round-trips and its malformed-wire
// property test, the in-process link (request/response + subscription push),
// real-socket loopback transport, and the persistence sink.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "hwdb/persist.hpp"
#include "hwdb/udp_transport.hpp"

// Bytes requested from operator new while counting is on: the codec property
// test bounds what one decode may allocate by the size of its input.
static bool g_count_allocs = false;
static std::size_t g_alloc_bytes = 0;

// The free() calls pair with the malloc() in the replacement operator new;
// GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs) g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hw::hwdb::rpc {
namespace {

Schema links_schema() {
  return Schema("Links", {{"mac", ColumnType::Text},
                          {"rssi", ColumnType::Real},
                          {"retries", ColumnType::Int}});
}

// ---------------------------------------------------------------------------
// Codec

TEST(RpcCodec, RequestRoundTrips) {
  const auto check = [](RequestBody body) {
    Request req{77, std::move(body)};
    auto decoded = decode(encode(req), /*from_server=*/false);
    ASSERT_TRUE(decoded.ok());
    const auto* out = std::get_if<Request>(&decoded.value());
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->request_id, 77u);
    EXPECT_EQ(out->body.index(), req.body.index());
  };
  check(InsertRequest{"Links", {Value{"m"}, Value{-60.5}, Value{3}}});
  check(QueryRequest{"SELECT * FROM Links"});
  check(SubscribeRequest{"SELECT * FROM Links", true, 500});
  check(UnsubscribeRequest{42});
  check(PingRequest{});
}

TEST(RpcCodec, InsertValuesSurvive) {
  Request req{1, InsertRequest{"Links", {Value{"aa:bb"}, Value{-70.25}, Value{9}}}};
  auto decoded = decode(encode(req), false);
  const auto& out = std::get<InsertRequest>(std::get<Request>(decoded.value()).body);
  EXPECT_EQ(out.table, "Links");
  ASSERT_EQ(out.values.size(), 3u);
  EXPECT_EQ(out.values[0].as_text(), "aa:bb");
  EXPECT_DOUBLE_EQ(out.values[1].as_real(), -70.25);
  EXPECT_EQ(out.values[2].as_int(), 9);
}

TEST(RpcCodec, ResponseVariants) {
  Response ok;
  ok.request_id = 5;
  ok.sub_id = 99;
  auto d1 = decode(encode(ok), true);
  EXPECT_EQ(std::get<Response>(d1.value()).sub_id, 99u);

  Response err;
  err.request_id = 6;
  err.ok = false;
  err.error = "no such table";
  auto d2 = decode(encode(err), true);
  EXPECT_FALSE(std::get<Response>(d2.value()).ok);
  EXPECT_EQ(std::get<Response>(d2.value()).error, "no such table");

  Response with_result;
  with_result.request_id = 7;
  ResultSet rs;
  rs.columns = {"a", "b"};
  rs.rows = {{Value{1}, Value{"x"}}, {Value{2}, Value{"y"}}};
  with_result.result = rs;
  auto d3 = decode(encode(with_result), true);
  const auto& out = *std::get<Response>(d3.value()).result;
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[1][1].as_text(), "y");
}

TEST(RpcCodec, PublishRoundTrip) {
  Publish push;
  push.sub_id = 12;
  push.result.columns = {"mac"};
  push.result.rows = {{Value{"m"}}};
  auto decoded = decode(encode(push), true);
  const auto* out = std::get_if<Publish>(&decoded.value());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sub_id, 12u);
  EXPECT_EQ(out->result.rows.size(), 1u);
}

TEST(RpcCodec, LiveVerbsRoundTrip) {
  Request sub{11, SubscribeSeriesRequest{"live.home.*", 3, 4, 16}};
  auto d1 = decode(encode(sub), false);
  ASSERT_TRUE(d1.ok());
  const auto& s =
      std::get<SubscribeSeriesRequest>(std::get<Request>(d1.value()).body);
  EXPECT_EQ(s.pattern, "live.home.*");
  EXPECT_EQ(s.home, 3u);
  EXPECT_EQ(s.every, 4u);
  EXPECT_EQ(s.max_queue, 16u);

  Request mut{12, MutateRequest{MutateKind::ApplyPolicy, 2, "policy-json",
                                "aux-blob", 7, 9}};
  auto d2 = decode(encode(mut), false);
  ASSERT_TRUE(d2.ok());
  const auto& m = std::get<MutateRequest>(std::get<Request>(d2.value()).body);
  EXPECT_EQ(m.kind, MutateKind::ApplyPolicy);
  EXPECT_EQ(m.home, 2u);
  EXPECT_EQ(m.text, "policy-json");
  EXPECT_EQ(m.aux, "aux-blob");
  EXPECT_EQ(m.arg0, 7u);
  EXPECT_EQ(m.arg1, 9u);

  // The response body discriminator is exclusive: a Mutate answer carries
  // applied_at (the barrier the mutation lands on), nothing else.
  Response resp;
  resp.request_id = 13;
  resp.applied_at = Timestamp{4250000};
  auto d3 = decode(encode(resp), true);
  ASSERT_TRUE(d3.ok());
  ASSERT_TRUE(std::get<Response>(d3.value()).applied_at.has_value());
  EXPECT_EQ(*std::get<Response>(d3.value()).applied_at, 4250000);
}

TEST(RpcCodec, DeltaPushRoundTrip) {
  DeltaPush push;
  push.sub_id = 21;
  push.seq = 17;
  push.vtime = 3000013;
  push.home = 1;
  push.snapshot = true;
  push.dropped = 4;
  push.values = {{"live.fleet.barriers", 12.0}, {"sim.host.tx_frames", 88.5}};
  auto decoded = decode(encode(push), /*from_server=*/true);
  ASSERT_TRUE(decoded.ok());
  const auto* out = std::get_if<DeltaPush>(&decoded.value());
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sub_id, 21u);
  EXPECT_EQ(out->seq, 17u);
  EXPECT_EQ(out->vtime, 3000013);
  EXPECT_EQ(out->home, 1u);
  EXPECT_TRUE(out->snapshot);
  EXPECT_EQ(out->dropped, 4u);
  ASSERT_EQ(out->values.size(), 2u);
  EXPECT_EQ(out->values[0].first, "live.fleet.barriers");
  EXPECT_DOUBLE_EQ(out->values[1].second, 88.5);
}

TEST(RpcCodec, RejectsGarbage) {
  Bytes garbage{1, 2};
  EXPECT_FALSE(decode(garbage, true).ok());
  EXPECT_FALSE(decode(garbage, false).ok());
  Bytes bad_opcode{0, 0, 0, 1, 99};
  EXPECT_FALSE(decode(bad_opcode, false).ok());
}

// A count is checked against the bytes left before anything is sized from
// it. This 12-byte response (id 1, ok, result set, 0 columns, 10,000,000
// rows) would otherwise decode into ten million empty rows.
TEST(RpcCodec, RejectsCountsTheDatagramCannotHold) {
  const Bytes empty_rows{0, 0, 0, 1, 0, 1, 0, 0, 0x00, 0x98, 0x96, 0x80};
  EXPECT_FALSE(decode(empty_rows, /*from_server=*/true).ok());
}

/// One encoded sample of every Request, Response, Publish and DeltaPush
/// variant, each tagged with the direction it decodes in.
std::vector<std::pair<Bytes, bool>> codec_samples() {
  ResultSet rs;
  rs.columns = {"mac", "rssi", "n", "at"};
  rs.rows = {{Value{"aa:bb"}, Value{-60.5}, Value{3}, Value::ts(7)},
             {Value{""}, Value{0.0}, Value{-1}, Value::ts(0)}};
  std::vector<std::pair<Bytes, bool>> out;
  for (RequestBody body : std::vector<RequestBody>{
           InsertRequest{"Links", {Value{"m"}, Value{-60.5}, Value{3}}},
           QueryRequest{"SELECT * FROM Links"},
           SubscribeRequest{"SELECT * FROM Links", true, 500},
           UnsubscribeRequest{42}, PingRequest{},
           SubscribeSeriesRequest{"live.home.*", 3, 4, 16},
           MutateRequest{MutateKind::InjectFault, 2, "link-loss", "0.25", 7,
                         9}}) {
    out.emplace_back(encode(Request{77, std::move(body)}), false);
  }
  Response resp;
  resp.request_id = 5;
  out.emplace_back(encode(resp), true);  // no body
  resp.result = rs;
  out.emplace_back(encode(resp), true);
  resp.result.reset();
  resp.sub_id = 99;
  out.emplace_back(encode(resp), true);
  resp.sub_id.reset();
  resp.applied_at = Timestamp{4250000};
  out.emplace_back(encode(resp), true);
  resp.ok = false;
  resp.error = "no such table";
  out.emplace_back(encode(resp), true);
  out.emplace_back(encode(Publish{12, rs}), true);
  out.emplace_back(
      encode(DeltaPush{21, 17, 3000013, 1, true, 4,
                       {{"live.home.attack_sent", 12.0}, {"sim.x", 8.5}}}),
      true);
  return out;
}

/// Decodes `datagram` both ways; fails when either decode allocates more
/// than a small multiple of the input.
void decode_bounded(const Bytes& datagram) {
  for (const bool from_server : {false, true}) {
    g_alloc_bytes = 0;
    g_count_allocs = true;
    (void)decode(datagram, from_server);
    g_count_allocs = false;
    EXPECT_LE(g_alloc_bytes, 64 * datagram.size() + 1024)
        << "decode of " << datagram.size() << " bytes allocated "
        << g_alloc_bytes;
  }
}

TEST(RpcCodec, EveryVariantRoundTripsAndSurvivesMangling) {
  for (const auto& [wire, from_server] : codec_samples()) {
    auto decoded = decode(wire, from_server);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    const Bytes again =
        std::visit([](const auto& x) { return encode(x); }, decoded.value());
    EXPECT_EQ(again, wire) << "variant " << decoded.value().index();

    for (std::size_t len = 0; len < wire.size(); ++len) {
      decode_bounded(Bytes(wire.begin(), wire.begin() + len));
    }
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        Bytes flipped = wire;
        flipped[i] ^= mask;
        decode_bounded(flipped);
      }
    }
  }
}

TEST(RpcCodec, ValueTagValidation) {
  ByteWriter w;
  w.u8(9);  // invalid type tag
  ByteReader r(w.bytes());
  EXPECT_FALSE(read_value(r).ok());
}

// ---------------------------------------------------------------------------
// In-process link

struct LinkFixture : ::testing::Test {
  LinkFixture() : db(loop), link(loop, db) {
    EXPECT_TRUE(db.create_table(links_schema(), 64).ok());
  }
  sim::EventLoop loop;
  Database db;
  InProcRpcLink link;
};

TEST_F(LinkFixture, InsertAndQuery) {
  auto& client = link.make_client();
  bool inserted = false;
  client.insert("Links", {Value{"m1"}, Value{-50.0}, Value{0}},
                [&](const Response& resp) { inserted = resp.ok; });
  loop.run_for(10 * kMillisecond);
  EXPECT_TRUE(inserted);

  std::size_t rows = 0;
  client.query("SELECT mac, rssi FROM Links", [&](Result<ResultSet> rs) {
    ASSERT_TRUE(rs.ok());
    rows = rs.value().rows.size();
    EXPECT_EQ(rs.value().rows[0][0].as_text(), "m1");
  });
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(rows, 1u);
}

TEST_F(LinkFixture, QueryErrorPropagates) {
  auto& client = link.make_client();
  std::string error;
  client.query("SELECT * FROM Ghost", [&](Result<ResultSet> rs) {
    ASSERT_FALSE(rs.ok());
    error = rs.error().message;
  });
  loop.run_for(10 * kMillisecond);
  EXPECT_NE(error.find("Ghost"), std::string::npos);
  EXPECT_EQ(link.server().stats().errors.value(), 1u);
}

TEST_F(LinkFixture, SubscriptionPushesPeriodically) {
  auto& client = link.make_client();
  std::uint64_t sub_id = 0;
  int pushes = 0;
  client.on_push([&](std::uint64_t id, const ResultSet&) {
    EXPECT_EQ(id, sub_id);
    ++pushes;
  });
  client.subscribe("SELECT * FROM Links [RANGE 5 SECONDS]", false, 1000,
                   [&](Result<std::uint64_t> id) {
                     ASSERT_TRUE(id.ok());
                     sub_id = id.value();
                   });
  loop.run_for(3 * kSecond + 10 * kMillisecond);
  EXPECT_EQ(pushes, 3);

  client.unsubscribe(sub_id);
  loop.run_for(2 * kSecond);
  EXPECT_EQ(pushes, 3);
}

TEST_F(LinkFixture, OnInsertSubscriptionPushes) {
  auto& client = link.make_client();
  int pushes = 0;
  client.on_push([&](std::uint64_t, const ResultSet& rs) {
    ++pushes;
    EXPECT_FALSE(rs.rows.empty());
  });
  client.subscribe("SELECT * FROM Links [ROWS 1]", true, 0,
                   [](Result<std::uint64_t>) {});
  loop.run_for(10 * kMillisecond);
  db.insert("Links", {Value{"m"}, Value{-60.0}, Value{1}});
  db.insert("Links", {Value{"m"}, Value{-61.0}, Value{2}});
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(pushes, 2);
}

TEST_F(LinkFixture, TwoClientsIsolatedPushes) {
  auto& c1 = link.make_client();
  auto& c2 = link.make_client();
  int pushes1 = 0, pushes2 = 0;
  c1.on_push([&](std::uint64_t, const ResultSet&) { ++pushes1; });
  c2.on_push([&](std::uint64_t, const ResultSet&) { ++pushes2; });
  c1.subscribe("SELECT * FROM Links [ROWS 1]", true, 0,
               [](Result<std::uint64_t>) {});
  loop.run_for(10 * kMillisecond);
  db.insert("Links", {Value{"m"}, Value{-60.0}, Value{1}});
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(pushes1, 1);
  EXPECT_EQ(pushes2, 0);
}

TEST_F(LinkFixture, DropClientRemovesSubscriptions) {
  auto& client = link.make_client();
  client.subscribe("SELECT * FROM Links [ROWS 1]", true, 0,
                   [](Result<std::uint64_t>) {});
  loop.run_for(10 * kMillisecond);
  EXPECT_EQ(db.subscription_count(), 1u);
  link.server().drop_client(0);
  EXPECT_EQ(db.subscription_count(), 0u);
}

// ---------------------------------------------------------------------------
// Reliable client: retries, timeouts, server-side duplicate suppression

TEST_F(LinkFixture, ReliableClientRetriesUntilResponse) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout = 10 * kMillisecond;
  policy.backoff_base = 5 * kMillisecond;
  policy.backoff_cap = 20 * kMillisecond;
  auto& client = link.make_client(policy);

  // Black-hole the link, then heal it mid-retry-schedule: the first sends
  // vanish, a later resend (same request id) gets through.
  Rng fault_rng(3);
  sim::DatagramFault blackhole;
  blackhole.drop = 1.0;
  link.set_fault(blackhole, &fault_rng);
  loop.schedule_at(22 * kMillisecond,
                   [&] { link.set_fault(sim::DatagramFault{}, &fault_rng); });

  bool inserted = false;
  client.insert("Links", {Value{"m1"}, Value{-50.0}, Value{0}},
                [&](const Response& resp) { inserted = resp.ok; });
  loop.run_for(100 * kMillisecond);

  EXPECT_TRUE(inserted);
  EXPECT_GE(client.stats().retries.value(), 1u);
  EXPECT_EQ(client.stats().timeouts.value(), 0u);
  EXPECT_EQ(client.pending(), 0u);
  // The retried insert was applied exactly once.
  auto rs = db.query("SELECT mac FROM Links");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);
}

TEST_F(LinkFixture, ReliableClientTimesOutAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout = 10 * kMillisecond;
  policy.backoff_base = 5 * kMillisecond;
  auto& client = link.make_client(policy);

  Rng fault_rng(3);
  sim::DatagramFault blackhole;
  blackhole.drop = 1.0;
  link.set_fault(blackhole, &fault_rng);

  std::string error;
  client.insert("Links", {Value{"m1"}, Value{-50.0}, Value{0}},
                [&](const Response& resp) {
                  EXPECT_FALSE(resp.ok);
                  error = resp.error;
                });
  loop.run_for(kSecond);

  EXPECT_EQ(error, "RPC: timed out");
  EXPECT_EQ(client.stats().retries.value(), 2u);  // attempts 2 and 3
  EXPECT_EQ(client.stats().timeouts.value(), 1u);
  EXPECT_EQ(client.pending(), 0u);
  EXPECT_EQ(link.stats().fault_dropped.value(), 3u);
  auto rs = db.query("SELECT mac FROM Links");
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs.value().rows.empty());
}

TEST_F(LinkFixture, ServerSuppressesDuplicatedRequests) {
  // The link duplicates every datagram; the server must apply the insert
  // once and answer the duplicate from its response cache.
  auto& client = link.make_client();
  Rng fault_rng(3);
  sim::DatagramFault dup;
  dup.duplicate = 1.0;
  link.set_fault(dup, &fault_rng);

  bool inserted = false;
  client.insert("Links", {Value{"m1"}, Value{-50.0}, Value{0}},
                [&](const Response& resp) { inserted = resp.ok; });
  loop.run_for(50 * kMillisecond);

  EXPECT_TRUE(inserted);
  EXPECT_GE(link.stats().fault_duplicated.value(), 1u);
  EXPECT_EQ(link.server().stats().dup_suppressed.value(), 1u);
  auto rs = db.query("SELECT mac FROM Links");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().rows.size(), 1u);
}

TEST_F(LinkFixture, RetriedSubscribeCreatesOneSubscriptionInOrder) {
  // Regression for the live-plane streaming contract: a subscribe whose
  // datagram is retransmitted (client retry or network duplication) must be
  // deduplicated server-side into exactly ONE subscription, so the push
  // stream afterwards carries no duplicated or reordered updates.
  auto& client = link.make_client();
  Rng fault_rng(3);
  sim::DatagramFault dup;
  dup.duplicate = 1.0;  // every datagram arrives twice
  link.set_fault(dup, &fault_rng);
  // Heal the link once the handshake settled, before the first push, so
  // push delivery itself is clean and any duplication we observe would come
  // from a doubled server-side subscription.
  loop.schedule_at(20 * kMillisecond,
                   [&] { link.set_fault(sim::DatagramFault{}, &fault_rng); });

  std::uint64_t sub_id = 0;
  std::vector<std::uint64_t> push_ids;
  client.on_push(
      [&](std::uint64_t id, const ResultSet&) { push_ids.push_back(id); });
  client.subscribe("SELECT * FROM Links [RANGE 5 SECONDS]", false, 1000,
                   [&](Result<std::uint64_t> id) {
                     ASSERT_TRUE(id.ok());
                     sub_id = id.value();
                   });
  loop.run_for(3 * kSecond + 10 * kMillisecond);

  EXPECT_GE(link.server().stats().dup_suppressed.value(), 1u);
  EXPECT_EQ(db.subscription_count(), 1u);
  // One push per period, all for the single subscription id — a doubled
  // subscription would interleave a second id (or double the count).
  EXPECT_EQ(push_ids.size(), 3u);
  for (const auto id : push_ids) EXPECT_EQ(id, sub_id);
}

TEST(RpcServerDedup, WindowEvictsPastItsCapPerClient) {
  // Drive the server well past its per-client dedup window: ten windows of
  // distinct request ids from one client. A retransmit still inside the
  // window is answered from the cache; one evicted from it runs again.
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(Schema("Seq", {{"client", ColumnType::Int},
                                             {"seq", ColumnType::Int}}),
                              8192)
                  .ok());
  Bytes last_answer;
  RpcServer server(db, [&](ClientAddress, const Bytes& d) { last_answer = d; });
  const auto& stats = server.stats();
  auto send = [&](ClientAddress from, std::uint32_t id) {
    const Request req{id, InsertRequest{"Seq", {Value{static_cast<int>(from)},
                                                Value{static_cast<int>(id)}}}};
    last_answer.clear();
    server.handle_datagram(from, encode(req));
  };
  auto rows_for = [&](ClientAddress from, std::uint32_t id) {
    const auto rs = db.query("SELECT client, seq FROM Seq");
    EXPECT_TRUE(rs.ok());
    std::size_t n = 0;
    for (const auto& row : rs.value().rows) {
      if (row[0].as_int() == static_cast<std::int64_t>(from) &&
          row[1].as_int() == static_cast<std::int64_t>(id)) {
        ++n;
      }
    }
    return n;
  };

  constexpr std::uint32_t kIds = 10 * RpcServer::kDedupWindow;
  constexpr ClientAddress kA = 1;
  constexpr ClientAddress kB = 2;
  for (std::uint32_t id = 1; id <= kIds; ++id) send(kA, id);
  ASSERT_EQ(stats.requests.value(), kIds);
  ASSERT_EQ(stats.dup_suppressed.value(), 0u);
  ASSERT_EQ(db.table("Seq")->size(), kIds);
  const Bytes newest_answer = last_answer;

  // The newest id is suppressed: counted, answered with the cached
  // response, not re-executed.
  send(kA, kIds);
  EXPECT_EQ(stats.requests.value(), kIds + 1);
  EXPECT_EQ(stats.dup_suppressed.value(), 1u);
  EXPECT_EQ(last_answer, newest_answer);
  EXPECT_EQ(rows_for(kA, kIds), 1u);

  // So is the oldest id the window still holds.
  const std::uint32_t oldest_kept = kIds - RpcServer::kDedupWindow + 1;
  send(kA, oldest_kept);
  EXPECT_EQ(stats.dup_suppressed.value(), 2u);
  EXPECT_EQ(rows_for(kA, oldest_kept), 1u);

  // The id just past the window was evicted and runs again: the request
  // counts, the suppression count does not move, and its insert lands a
  // second time.
  const std::uint32_t evicted = oldest_kept - 1;
  send(kA, evicted);
  EXPECT_EQ(stats.requests.value(), kIds + 3);
  EXPECT_EQ(stats.dup_suppressed.value(), 2u);
  EXPECT_EQ(rows_for(kA, evicted), 2u);
  EXPECT_EQ(db.table("Seq")->size(), kIds + 1);

  // A second client reusing the same ids has a window of its own: every one
  // of its requests executes, and it evicts nothing from the first's.
  for (std::uint32_t id = 1; id <= kIds; ++id) send(kB, id);
  EXPECT_EQ(stats.requests.value(), 2 * kIds + 3);
  EXPECT_EQ(stats.dup_suppressed.value(), 2u);
  EXPECT_EQ(rows_for(kB, kIds), 1u);
  const Bytes b_newest_answer = last_answer;
  send(kA, kIds);
  send(kA, evicted);
  EXPECT_EQ(stats.dup_suppressed.value(), 4u);
  EXPECT_EQ(rows_for(kA, evicted), 2u);
  send(kB, kIds);
  EXPECT_EQ(stats.dup_suppressed.value(), 5u);
  EXPECT_EQ(last_answer, b_newest_answer);
  EXPECT_EQ(db.table("Seq")->size(), 2 * kIds + 1);
}

TEST_F(LinkFixture, RetryScheduleIsDeterministic) {
  // Two identically-configured clients over two identical black-holed links
  // retransmit on exactly the same virtual-clock schedule (no jitter).
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.timeout = 10 * kMillisecond;
  policy.backoff_base = 5 * kMillisecond;
  const std::vector<Duration> expected = {10 * kMillisecond, 15 * kMillisecond,
                                          20 * kMillisecond, 30 * kMillisecond};
  EXPECT_EQ(policy.schedule(), expected);
}

// ---------------------------------------------------------------------------
// Real UDP sockets on loopback

TEST(UdpTransport, RequestResponseOverLoopback) {
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(links_schema(), 64).ok());

  UdpServerTransport server(db, 0);
  ASSERT_TRUE(server.ok());
  ASSERT_NE(server.port(), 0);

  UdpClientTransport client(server.port());
  ASSERT_TRUE(client.ok());

  bool inserted = false;
  client.client().insert("Links", {Value{"m1"}, Value{-55.0}, Value{2}},
                         [&](const Response& resp) { inserted = resp.ok; });
  // Loopback delivery is synchronous, so the server can answer right away;
  // the client then waits only for a reply that is already on its way.
  ASSERT_TRUE(server.poll() > 0);
  ASSERT_TRUE(client.wait(2000));
  client.poll();
  EXPECT_TRUE(inserted);

  std::size_t rows = 0;
  client.client().query("SELECT * FROM Links", [&](Result<ResultSet> rs) {
    ASSERT_TRUE(rs.ok());
    rows = rs.value().rows.size();
  });
  server.poll();
  ASSERT_TRUE(client.wait(2000));
  client.poll();
  EXPECT_EQ(rows, 1u);
}

TEST(UdpTransport, SubscriptionPushOverLoopback) {
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(links_schema(), 64).ok());

  UdpServerTransport server(db, 0);
  ASSERT_TRUE(server.ok());
  UdpClientTransport client(server.port());
  ASSERT_TRUE(client.ok());

  int pushes = 0;
  client.client().on_push(
      [&](std::uint64_t, const ResultSet& rs) {
        ++pushes;
        EXPECT_FALSE(rs.rows.empty());
      });
  bool subscribed = false;
  client.client().subscribe("SELECT * FROM Links [ROWS 1]", /*on_insert=*/true,
                            0, [&](Result<std::uint64_t> id) {
                              subscribed = id.ok();
                            });
  server.poll();
  ASSERT_TRUE(client.wait(2000));
  client.poll();
  ASSERT_TRUE(subscribed);

  // Inserts through the socket trigger pushes back through the socket.
  for (int i = 0; i < 3; ++i) {
    client.client().insert("Links", {Value{"m"}, Value{-60.0}, Value{i}});
    server.poll();
    // Each insert produces a push + an insert ack: wait for exactly those two.
    std::size_t received = 0;
    while (received < 2 && client.wait(2000)) received += client.poll();
    ASSERT_EQ(received, 2u);
  }
  EXPECT_EQ(pushes, 3);
}

TEST(UdpTransport, TimedOutWaitConsumesNoSimEvents) {
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(links_schema(), 64).ok());
  UdpServerTransport server(db, 0);
  ASSERT_TRUE(server.ok());
  UdpClientTransport client(server.port(), &loop);
  ASSERT_TRUE(client.ok());

  // A future event must survive a timed-out wait untouched: wait() blocks in
  // one ::poll on the socket, it does not spin the simulation forward.
  bool fired = false;
  loop.schedule_at(kSecond, [&] { fired = true; });
  const std::uint64_t executed_before = loop.executed();
  const Timestamp now_before = loop.now();

  EXPECT_FALSE(client.wait(50));  // nothing on the wire → timeout

  EXPECT_EQ(loop.executed(), executed_before);
  EXPECT_EQ(loop.now(), now_before);
  EXPECT_FALSE(fired);
}

TEST(UdpTransport, WaitDrainsDueEventsBeforeBlocking) {
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(links_schema(), 64).ok());
  UdpServerTransport server(db, 0);
  ASSERT_TRUE(server.ok());
  UdpClientTransport client(server.port(), &loop);
  ASSERT_TRUE(client.ok());

  // An already-due event (a sim-scheduled send, typically) runs before the
  // socket wait, so it cannot be starved by a long timeout...
  bool due_ran = false;
  loop.schedule_at(loop.now(), [&] { due_ran = true; });
  // ...while a future event stays future.
  bool future_ran = false;
  loop.schedule_at(loop.now() + kSecond, [&] { future_ran = true; });

  EXPECT_FALSE(client.wait(10));
  EXPECT_TRUE(due_ran);
  EXPECT_FALSE(future_ran);
}

// ---------------------------------------------------------------------------
// Persistence sink

TEST(TableTsv, DumpLoadRoundTrip) {
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(links_schema(), 64).ok());
  for (int i = 0; i < 5; ++i) {
    loop.run_for(kSecond);
    ASSERT_TRUE(db.insert("Links", {Value{"m" + std::to_string(i)},
                                    Value{-60.0 - i}, Value{i}})
                    .ok());
  }
  const std::string path = ::testing::TempDir() + "/hwdb_table_test.tsv";
  auto dumped = dump_table_tsv(*db.table("Links"), path);
  ASSERT_TRUE(dumped.ok());
  EXPECT_EQ(dumped.value(), 5u);

  // Load into a fresh table with the same schema; timestamps preserved.
  Table copy(links_schema(), 64);
  auto loaded = load_table_tsv(copy, path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value(), 5u);
  EXPECT_EQ(copy.size(), 5u);
  EXPECT_EQ(copy.oldest().ts(), kSecond);
  EXPECT_EQ(copy.newest().at(0).as_text(), "m4");
  EXPECT_DOUBLE_EQ(copy.newest().at(1).as_real(), -64.0);
  std::remove(path.c_str());
}

TEST(TableTsv, TrailingEmptyTextRoundTrips) {
  // The empty text ends its line with the tab before it, which the load
  // must keep to count the fields.
  const Schema schema("Notes", {{"n", ColumnType::Int}, {"note", ColumnType::Text}});
  Table table(schema, 4);
  ASSERT_TRUE(table.insert(kSecond, {Value{1}, Value{""}}).ok());
  const std::string path = ::testing::TempDir() + "/hwdb_empty_text_test.tsv";
  ASSERT_TRUE(dump_table_tsv(table, path).ok());

  Table copy(schema, 4);
  auto loaded = load_table_tsv(copy, path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_EQ(copy.oldest().ts(), kSecond);
  EXPECT_EQ(copy.oldest().at(0).as_int(), 1);
  EXPECT_EQ(copy.oldest().at(1).as_text(), "");
  std::remove(path.c_str());
}

TEST(TableTsv, LoadRejectsSchemaMismatch) {
  const std::string path = ::testing::TempDir() + "/hwdb_bad_test.tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "100\tonly-two-fields\n");
  std::fclose(f);
  Table table(links_schema(), 8);
  EXPECT_FALSE(load_table_tsv(table, path).ok());
  EXPECT_EQ(table.size(), 0u) << "rejected load must not partially mutate";
  std::remove(path.c_str());
  EXPECT_FALSE(load_table_tsv(table, "/no/such/file.tsv").ok());
}

TEST(TableTsv, LoadRejectsTruncationWithoutPartialMutation) {
  // A file torn mid-line (no trailing newline) is a failed write, not a
  // short table: the load reports an error and stages nothing. Valid rows
  // ahead of the tear must not leak into the table either.
  const std::string path = ::testing::TempDir() + "/hwdb_torn_test.tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "1000000\tm0\t-60\t1\n");
  std::fprintf(f, "2000000\tm1\t-61");  // torn: no newline
  std::fclose(f);
  Table table(links_schema(), 8);
  const auto loaded = load_table_tsv(table, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("truncated"), std::string::npos)
      << loaded.error().message;
  EXPECT_EQ(table.size(), 0u);
  std::remove(path.c_str());
}

TEST(TableTsv, LoadRejectsNonMonotonicTimestamps) {
  // Ring tables are time-ordered by construction; a dump with timestamps
  // running backwards is corrupt input, not a reordering request.
  const std::string path = ::testing::TempDir() + "/hwdb_backwards_test.tsv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "2000000\tm0\t-60\t1\n");
  std::fprintf(f, "1000000\tm1\t-61\t2\n");
  std::fclose(f);
  Table table(links_schema(), 8);
  const auto loaded = load_table_tsv(table, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().message.find("non-monotonic"), std::string::npos)
      << loaded.error().message;
  EXPECT_EQ(table.size(), 0u);
  std::remove(path.c_str());
}

TEST(PersistSink, AppendsBatchesToFile) {
  sim::EventLoop loop;
  Database db(loop);
  ASSERT_TRUE(db.create_table(links_schema(), 64).ok());
  const std::string path = ::testing::TempDir() + "/hwdb_persist_test.tsv";
  std::remove(path.c_str());

  {
    PersistSink sink(db, "SELECT mac, retries FROM Links [ROWS 4]",
                     SubscriptionMode::OnInsert, 0, path);
    ASSERT_TRUE(sink.ok());
    db.insert("Links", {Value{"m"}, Value{-60.0}, Value{1}});
    db.insert("Links", {Value{"m"}, Value{-61.0}, Value{2}});
    EXPECT_EQ(sink.batches_written(), 2u);
    EXPECT_EQ(sink.rows_written(), 3u);  // batch1: 1 row, batch2: 2 rows
    sink.flush();
  }

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  std::string contents;
  while (std::fgets(buf, sizeof buf, f) != nullptr) contents += buf;
  std::fclose(f);
  EXPECT_NE(contents.find("# batch"), std::string::npos);
  EXPECT_NE(contents.find("m\t1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hw::hwdb::rpc
