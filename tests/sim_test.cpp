// Simulator tests: event loop determinism and (debug builds) its
// thread-ownership assert, link models (frame links, and the byte-stream
// link against a one-event-per-send reference), wireless signal model and
// the host's DHCP client state machine against a scripted server.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "net/dhcp.hpp"
#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/host.hpp"
#include "sim/link.hpp"
#include "sim/pcap.hpp"
#include "sim/stream.hpp"
#include "sim/trace.hpp"
#include "sim/wireless.hpp"

// Calls to operator new while counting is on: the steady-hop test proves a
// link in steady state reuses its in-flight slots.
static bool g_count_allocs = false;
static std::size_t g_alloc_calls = 0;

// The free() calls pair with the malloc() in the replacement operator new;
// GCC cannot see that and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_alloc_calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hw::sim {
namespace {

// ---------------------------------------------------------------------------
// EventLoop

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(300, [&] { order.push_back(3); });
  loop.schedule_at(100, [&] { order.push_back(1); });
  loop.schedule_at(200, [&] { order.push_back(2); });
  loop.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 1000u);
}

TEST(EventLoop, FifoAmongSameTimestamp) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(50, [&, i] { order.push_back(i); });
  }
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, DeadlineStopsExecution) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_at(100, [&] { ++ran; });
  loop.schedule_at(200, [&] { ++ran; });
  loop.run_until(150);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), 150u);
  loop.run_until(250);
  EXPECT_EQ(ran, 2);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int ran = 0;
  auto id = loop.schedule_at(100, [&] { ++ran; });
  loop.schedule_at(100, [&] { ++ran; });
  loop.cancel(id);
  loop.run_all();
  EXPECT_EQ(ran, 1);
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth2 = 0;
  loop.schedule_at(10, [&] {
    loop.schedule(5, [&] { ++depth2; });
  });
  loop.run_until(100);
  EXPECT_EQ(depth2, 1);
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.run_until(500);
  Timestamp fired_at = 0;
  loop.schedule_at(100, [&] { fired_at = loop.now(); });
  loop.run_until(600);
  EXPECT_EQ(fired_at, 500u);
}

TEST(EventLoop, CancelAfterFireIsNoOp) {
  EventLoop loop;
  int ran = 0;
  const auto fired = loop.schedule_at(10, [&] { ++ran; });
  loop.run_until(20);
  ASSERT_EQ(ran, 1);
  // The fired event's slot is reused by the next schedule; the stale id
  // must not reach the new event, once or twice.
  loop.schedule_at(30, [&] { ++ran; });
  EXPECT_EQ(loop.pending(), 1u);
  loop.cancel(fired);
  loop.cancel(fired);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, SecondCancelIsNoOp) {
  EventLoop loop;
  int ran = 0;
  const auto id = loop.schedule_at(10, [&] { ran += 1; });
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  const auto later = loop.schedule_at(10, [&] { ran += 10; });
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(ran, 10);
  loop.cancel(later);
  loop.cancel(0);
  loop.cancel(~EventLoop::EventId{0});
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, PendingExactOverStaleCancels) {
  EventLoop loop;
  std::vector<EventLoop::EventId> fired;
  std::uint64_t ran = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto keep = loop.schedule(5, [&] { ++ran; });
    const auto drop = loop.schedule(3, [&] { ran += 1000000; });
    fired.push_back(loop.schedule(1, [&] { ++ran; }));
    ASSERT_EQ(loop.pending(), 3u);
    loop.cancel(drop);
    ASSERT_EQ(loop.pending(), 2u);
    loop.run_for(2);  // fires the 1 µs event only
    ASSERT_EQ(loop.pending(), 1u);
    // Cancels of events that already fired, here and many cycles ago.
    loop.cancel(fired.back());
    loop.cancel(fired[static_cast<std::size_t>(i) / 2]);
    loop.cancel(drop);
    ASSERT_EQ(loop.pending(), 1u) << "cycle " << i;
    loop.run_for(5);
    ASSERT_EQ(loop.pending(), 0u);
    loop.cancel(keep);
    ASSERT_EQ(loop.pending(), 0u);
  }
  EXPECT_EQ(ran, 20000u);
  EXPECT_EQ(loop.executed(), 20000u);
}

TEST(EventLoop, FifoAmongSameTimestampAcrossSlotReuse) {
  EventLoop loop;
  std::vector<int> order;
  // Free slots in a scrambled order, then refill them: same-time events
  // still run in the order they were scheduled, not in slot order.
  std::vector<EventLoop::EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(loop.schedule_at(100, [] {}));
  for (int i : {5, 1, 7, 3, 0, 6, 2, 4}) loop.cancel(ids[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 12; ++i) {
    loop.schedule_at(50, [&, i] { order.push_back(i); });
  }
  loop.run_all();
  std::vector<int> want(12);
  for (int i = 0; i < 12; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, want);
  EXPECT_EQ(loop.executed(), 12u);
}

TEST(EventLoop, NextEventAtSkipsCancelledHeads) {
  EventLoop loop;
  EXPECT_EQ(loop.next_event_at(), EventLoop::kNoEvent);
  const auto a = loop.schedule_at(10, [] {});
  const auto b = loop.schedule_at(20, [] {});
  loop.schedule_at(30, [] {});
  EXPECT_EQ(loop.next_event_at(), 10u);
  loop.cancel(a);
  loop.cancel(b);
  EXPECT_EQ(loop.next_event_at(), 30u);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(loop.next_event_at(), EventLoop::kNoEvent);
}

TEST(PeriodicTimer, StopOnceFiredFromOwnCallback) {
  EventLoop loop;
  int fires = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer(loop, 10, [&] {
    // The fired event's id is stale here; stopping cancels it as a no-op.
    if (++fires == 3) self->stop();
  });
  self = &timer;
  timer.start();
  loop.run_until(1000);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(PeriodicTimer, FiresAtPeriodUntilStopped) {
  EventLoop loop;
  int fires = 0;
  PeriodicTimer timer(loop, 100, [&] { ++fires; });
  timer.start();
  loop.run_until(1000);
  EXPECT_EQ(fires, 10);
  timer.stop();
  loop.run_until(2000);
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTimer, StopFromWithinCallback) {
  EventLoop loop;
  int fires = 0;
  PeriodicTimer timer(loop, 10, [&] {
    if (++fires == 3) {
      // The timer is stopped from its own callback; no further fires.
    }
  });
  timer.start();
  loop.schedule_at(25, [&] { timer.stop(); });
  loop.run_until(1000);
  EXPECT_EQ(fires, 2);
}

#ifndef NDEBUG
TEST(EventLoopOwnershipDeathTest, ForeignThreadScheduleAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventLoop loop;
  loop.schedule_at(1, [] {});  // binds ownership to this thread
  EXPECT_DEATH(
      {
        std::thread foreign([&] { loop.schedule_at(2, [] {}); });
        foreign.join();
      },
      "does not own");
}
#endif

// ---------------------------------------------------------------------------
// Links

class Collector final : public FrameSink {
 public:
  void deliver(const Bytes& frame) override { frames.push_back(frame); }
  std::vector<Bytes> frames;
};

TEST(Link, DeliversWithLatencyAndSerialization) {
  EventLoop loop;
  LinkChannel::Config config;
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  config.latency = 100;
  LinkChannel link(loop, config);
  Collector sink;
  link.connect(&sink);

  link.send(Bytes(500, 0));
  loop.run_until(100 + 500 - 1);
  EXPECT_TRUE(sink.frames.empty());
  loop.run_until(100 + 500);
  ASSERT_EQ(sink.frames.size(), 1u);
}

TEST(Link, FramesQueueBehindEachOther) {
  EventLoop loop;
  LinkChannel::Config config;
  config.bandwidth_bps = 8'000'000;
  config.latency = 0;
  LinkChannel link(loop, config);
  Collector sink;
  link.connect(&sink);

  link.send(Bytes(1000, 0));  // tx 1000us
  link.send(Bytes(1000, 0));  // queued: arrives at 2000us
  loop.run_until(1500);
  EXPECT_EQ(sink.frames.size(), 1u);
  loop.run_until(2000);
  EXPECT_EQ(sink.frames.size(), 2u);
}

TEST(Link, MovedFrameArrivesWithoutCopy) {
  EventLoop loop;
  LinkChannel link(loop, {});
  std::vector<const std::uint8_t*> seen;
  CallbackSink probe([&](const Bytes& frame) { seen.push_back(frame.data()); });
  link.connect(&probe);

  Bytes frame(64, 7);
  const std::uint8_t* buffer = frame.data();
  ASSERT_TRUE(link.send(std::move(frame)));
  loop.run_all();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], buffer);  // the sender's own buffer reached the sink
}

TEST(Link, BandwidthChangeInFlightKeepsArrivalOrder) {
  EventLoop loop;
  LinkChannel::Config config;
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  config.latency = 50;
  LinkChannel link(loop, config);
  std::vector<std::pair<Timestamp, std::uint8_t>> arrivals;
  CallbackSink sink([&](const Bytes& frame) {
    arrivals.emplace_back(loop.now(), frame[0]);
  });
  link.connect(&sink);

  link.send(Bytes(1000, 1));
  link.set_bandwidth(80'000'000);  // the next frame serializes 10x faster
  link.send(Bytes(100, 2));
  loop.run_for(200);
  link.send(Bytes(10, 3));  // sent mid-flight: still queues behind both
  loop.run_all();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], (std::pair<Timestamp, std::uint8_t>{1050, 1}));
  EXPECT_EQ(arrivals[1], (std::pair<Timestamp, std::uint8_t>{1060, 2}));
  EXPECT_EQ(arrivals[2], (std::pair<Timestamp, std::uint8_t>{1061, 3}));
}

TEST(Link, QueueLimitTailDrops) {
  EventLoop loop;
  LinkChannel::Config config;
  config.queue_limit = 2;
  LinkChannel link(loop, config);
  Collector sink;
  link.connect(&sink);
  EXPECT_TRUE(link.send(Bytes(100, 0)));
  EXPECT_TRUE(link.send(Bytes(100, 0)));
  EXPECT_FALSE(link.send(Bytes(100, 0)));  // dropped
  EXPECT_EQ(link.stats().dropped_frames.value(), 1u);
  loop.run_all();
  EXPECT_EQ(sink.frames.size(), 2u);
}

TEST(Link, LossProbabilityDrops) {
  EventLoop loop;
  Rng rng(11);
  LinkChannel::Config config;
  config.loss_probability = 0.5;
  config.queue_limit = 100000;  // isolate the loss model from tail drops
  LinkChannel link(loop, config, &rng);
  Collector sink;
  link.connect(&sink);
  for (int i = 0; i < 1000; ++i) link.send(Bytes(10, 0));
  loop.run_all();
  // Statistically ~500; allow a generous band.
  EXPECT_GT(sink.frames.size(), 350u);
  EXPECT_LT(sink.frames.size(), 650u);
  EXPECT_EQ(sink.frames.size() + link.stats().dropped_frames.value(), 1000u);
}

TEST(Link, SteadyHopAllocatesNothingAfterWarmUp) {
  EventLoop loop;
  LinkChannel link(loop, {});
  std::size_t delivered = 0;
  CallbackSink sink([&](const Bytes&) { ++delivered; });
  link.connect(&sink);
  // Frames are built up front: the hop itself is what is measured.
  constexpr int kWarmUp = 64;
  constexpr int kRounds = 1000;
  constexpr int kPerRound = 4;
  std::vector<Bytes> frames((kWarmUp + kRounds) * kPerRound, Bytes(64, 1));
  std::size_t next = 0;
  auto round = [&] {
    for (int i = 0; i < kPerRound; ++i) link.send(std::move(frames[next++]));
    loop.run_all();
  };
  for (int i = 0; i < kWarmUp; ++i) round();
  g_alloc_calls = 0;
  g_count_allocs = true;
  for (int i = 0; i < kRounds; ++i) round();
  g_count_allocs = false;
  EXPECT_EQ(g_alloc_calls, 0u);
  EXPECT_EQ(delivered, frames.size());
}

TEST(Link, NoSinkMeansNoDelivery) {
  EventLoop loop;
  LinkChannel link(loop, {});
  EXPECT_FALSE(link.send(Bytes(10, 0)));
}

// ---------------------------------------------------------------------------
// Wireless model

TEST(Wireless, RssiFallsWithDistance) {
  WirelessConfig cfg;
  const double near = path_loss_rssi(cfg, 1);
  const double mid = path_loss_rssi(cfg, 10);
  const double far = path_loss_rssi(cfg, 30);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

TEST(Wireless, RetryProbabilityRisesAsSignalDegrades) {
  WirelessConfig cfg;
  const double strong = retry_probability(cfg, -40);
  const double weak = retry_probability(cfg, -85);
  EXPECT_LT(strong, 0.05);
  EXPECT_GT(weak, 0.5);
  EXPECT_LE(weak, 0.9);
}

TEST(Wireless, QualityNormalization) {
  EXPECT_DOUBLE_EQ(rssi_quality(-90), 0.0);
  EXPECT_DOUBLE_EQ(rssi_quality(-30), 1.0);
  EXPECT_NEAR(rssi_quality(-60), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(rssi_quality(-120), 0.0);  // clamped
}

TEST(Wireless, SampleClampedAtNoiseFloor) {
  WirelessConfig cfg;
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(sample_rssi(cfg, 1000, rng), cfg.noise_floor_dbm);
  }
}

TEST(Wireless, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
}

// ---------------------------------------------------------------------------
// Host DHCP client against a scripted server

/// Minimal scripted DHCP server living directly on the host's uplink.
class ScriptedDhcpServer final : public FrameSink {
 public:
  ScriptedDhcpServer(EventLoop& loop, Host& client) : loop_(loop), client_(client) {}

  bool offer_enabled = true;
  bool ack_enabled = true;
  bool nak_requests = false;
  int discovers_seen = 0;
  int requests_seen = 0;

  void deliver(const Bytes& frame) override {
    auto p = net::ParsedPacket::parse(frame);
    if (!p.ok() || !p.value().is_dhcp()) return;
    auto msg = net::DhcpMessage::parse(p.value().l4_payload);
    if (!msg.ok()) return;
    const auto& m = msg.value();

    if (m.message_type == net::DhcpMessageType::Discover) {
      ++discovers_seen;
      if (!offer_enabled) return;
      reply(m, net::DhcpMessageType::Offer);
    } else if (m.message_type == net::DhcpMessageType::Request) {
      ++requests_seen;
      if (nak_requests) {
        reply(m, net::DhcpMessageType::Nak);
      } else if (ack_enabled) {
        reply(m, net::DhcpMessageType::Ack);
      }
    }
  }

 private:
  void reply(const net::DhcpMessage& req, net::DhcpMessageType type) {
    net::DhcpMessage resp;
    resp.is_request = false;
    resp.xid = req.xid;
    resp.chaddr = req.chaddr;
    resp.message_type = type;
    resp.server_identifier = Ipv4Address{192, 168, 1, 1};
    if (type != net::DhcpMessageType::Nak) {
      resp.yiaddr = Ipv4Address{192, 168, 1, 50};
      resp.lease_time_secs = 600;
      resp.router = Ipv4Address{192, 168, 1, 1};
      resp.dns_servers = {Ipv4Address{192, 168, 1, 1}};
      resp.subnet_mask = Ipv4Address{0xffffffffu};
    }
    const Bytes frame = net::build_dhcp_frame(
        MacAddress::from_index(0xff), req.chaddr, Ipv4Address{192, 168, 1, 1},
        Ipv4Address::broadcast(), false, resp.serialize());
    loop_.schedule(100, [this, frame] { client_.deliver(frame); });
  }

  EventLoop& loop_;
  Host& client_;
};

struct HostFixture : ::testing::Test {
  HostFixture() : rng(1), host(loop,
             {.name = "dev", .mac = MacAddress::from_index(9), .hostname = ""},
             rng) {
    uplink = std::make_unique<LinkChannel>(loop, LinkChannel::Config{});
    server = std::make_unique<ScriptedDhcpServer>(loop, host);
    uplink->connect(server.get());
    host.attach_uplink(uplink.get());
  }

  EventLoop loop;
  Rng rng;
  Host host;
  std::unique_ptr<LinkChannel> uplink;
  std::unique_ptr<ScriptedDhcpServer> server;
};

TEST_F(HostFixture, FullAcquisitionSequence) {
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Init);
  int bound_count = 0;
  host.on_bound([&] { ++bound_count; });
  host.start_dhcp();
  loop.run_for(kSecond);
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Bound);
  ASSERT_TRUE(host.ip().has_value());
  EXPECT_EQ(host.ip()->to_string(), "192.168.1.50");
  EXPECT_EQ(host.gateway()->to_string(), "192.168.1.1");
  EXPECT_EQ(host.dns_server()->to_string(), "192.168.1.1");
  EXPECT_EQ(bound_count, 1);
  EXPECT_EQ(server->discovers_seen, 1);
  EXPECT_EQ(server->requests_seen, 1);
}

TEST_F(HostFixture, RetransmitsDiscoverWhenUnanswered) {
  server->offer_enabled = false;
  host.start_dhcp();
  loop.run_for(7 * kSecond);
  // Initial + retries every 2s, capped by dhcp_max_retries (4).
  EXPECT_GE(server->discovers_seen, 3);
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Selecting);
  EXPECT_FALSE(host.ip().has_value());
}

TEST_F(HostFixture, GivesUpAfterMaxRetries) {
  server->offer_enabled = false;
  host.start_dhcp();
  loop.run_for(30 * kSecond);
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Init);
  EXPECT_EQ(server->discovers_seen, 5);  // initial + 4 retries
}

TEST_F(HostFixture, NakReturnsToInit) {
  server->nak_requests = true;
  int naks = 0;
  host.on_nak([&] { ++naks; });
  host.start_dhcp();
  loop.run_for(kSecond);
  EXPECT_EQ(naks, 1);
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Init);
  EXPECT_FALSE(host.ip().has_value());
  EXPECT_EQ(host.stats().dhcp_naks.value(), 1u);
}

TEST_F(HostFixture, RenewsAtHalfLease) {
  host.start_dhcp();
  loop.run_for(kSecond);
  ASSERT_TRUE(host.ip().has_value());
  const int requests_before = server->requests_seen;
  // Lease is 600s; renewal at T1=300s.
  loop.run_for(301 * kSecond);
  EXPECT_GT(server->requests_seen, requests_before);
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Bound);
}

TEST_F(HostFixture, ReleaseClearsState) {
  host.start_dhcp();
  loop.run_for(kSecond);
  ASSERT_TRUE(host.ip().has_value());
  host.release_dhcp();
  EXPECT_EQ(host.dhcp_state(), DhcpClientState::Init);
  EXPECT_FALSE(host.ip().has_value());
}

TEST_F(HostFixture, IgnoresRepliesWithWrongXid) {
  host.start_dhcp();
  // Inject a forged OFFER with a wrong xid before the real one arrives.
  net::DhcpMessage forged;
  forged.is_request = false;
  forged.xid = 0xbadbad;
  forged.chaddr = host.mac();
  forged.message_type = net::DhcpMessageType::Offer;
  forged.yiaddr = Ipv4Address{10, 66, 66, 66};
  forged.server_identifier = Ipv4Address{10, 6, 6, 6};
  host.deliver(net::build_dhcp_frame(MacAddress::from_index(0xee), host.mac(),
                                     Ipv4Address{10, 6, 6, 6},
                                     Ipv4Address::broadcast(), false,
                                     forged.serialize()));
  loop.run_for(kSecond);
  // Bound via the legitimate exchange, not the forgery.
  EXPECT_EQ(host.ip()->to_string(), "192.168.1.50");
}

TEST_F(HostFixture, DnsTimeoutFailsClosed) {
  host.start_dhcp();
  loop.run_for(kSecond);
  ASSERT_TRUE(host.ip().has_value());
  // The scripted server answers DHCP only; DNS queries vanish → the stub
  // resolver times out after 3 s and reports the failure.
  std::string error;
  bool done = false;
  host.resolve("unanswered.example",
               [&](Result<Ipv4Address> r, const std::string&) {
                 done = true;
                 if (!r.ok()) error = r.error().message;
               });
  loop.run_for(4 * kSecond);
  EXPECT_TRUE(done);
  EXPECT_NE(error.find("timeout"), std::string::npos);
  EXPECT_EQ(host.stats().dns_failures.value(), 1u);
}

TEST_F(HostFixture, ResolveWithoutBindingFailsImmediately) {
  bool done = false;
  host.resolve("x.test", [&](Result<Ipv4Address> r, const std::string&) {
    done = true;
    EXPECT_FALSE(r.ok());
  });
  EXPECT_TRUE(done);
}

TEST_F(HostFixture, SendRequiresBinding) {
  EXPECT_FALSE(host.send_udp(Ipv4Address{1, 2, 3, 4}, 1, 2, 10));
  host.start_dhcp();
  loop.run_for(kSecond);
  EXPECT_TRUE(host.send_udp(Ipv4Address{1, 2, 3, 4}, 1, 2, 10));
}

// ---------------------------------------------------------------------------
// pcap export

TEST(Pcap, RoundTripThroughBytes) {
  Trace trace;
  const Bytes f1 = net::build_udp(MacAddress::from_index(1),
                                  MacAddress::from_index(2),
                                  Ipv4Address{1, 1, 1, 1},
                                  Ipv4Address{2, 2, 2, 2}, 10, 20, Bytes(40, 7));
  const Bytes f2 = net::build_icmp_echo(MacAddress::from_index(3),
                                        MacAddress::from_index(4),
                                        Ipv4Address{3, 3, 3, 3},
                                        Ipv4Address{4, 4, 4, 4},
                                        net::IcmpType::EchoRequest, 1, 2);
  trace.record(1'500'000, "uplink", f1);
  trace.record(2'000'001, "uplink", f2);

  const Bytes pcap = to_pcap(trace);
  // Global header invariants: little-endian magic, v2.4, Ethernet link type.
  ASSERT_GE(pcap.size(), 24u);
  EXPECT_EQ(pcap[0], 0xd4);
  EXPECT_EQ(pcap[1], 0xc3);
  EXPECT_EQ(pcap[2], 0xb2);
  EXPECT_EQ(pcap[3], 0xa1);
  EXPECT_EQ(pcap[20], 1u);  // LINKTYPE_ETHERNET, LE byte 0

  auto parsed = parse_pcap(pcap);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].time, 1'500'000u);
  EXPECT_EQ(parsed.value()[0].frame, f1);
  EXPECT_EQ(parsed.value()[1].time, 2'000'001u);
  EXPECT_EQ(parsed.value()[1].frame, f2);
  // The payloads still dissect as packets.
  EXPECT_TRUE(net::ParsedPacket::parse(parsed.value()[1].frame).ok());
}

TEST(Pcap, FileRoundTrip) {
  Trace trace;
  trace.record(42, "p", net::build_udp(MacAddress::from_index(1),
                                       MacAddress::from_index(2),
                                       Ipv4Address{1, 1, 1, 1},
                                       Ipv4Address{2, 2, 2, 2}, 1, 2,
                                       Bytes(10, 0)));
  const std::string path = ::testing::TempDir() + "/hw_trace_test.pcap";
  ASSERT_TRUE(write_pcap(trace, path).ok());
  auto back = read_pcap(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 1u);
  EXPECT_EQ(back.value()[0].time, 42u);
  std::remove(path.c_str());
}

TEST(Pcap, RejectsMalformed) {
  EXPECT_FALSE(parse_pcap(Bytes{1, 2, 3}).ok());
  Bytes bad_magic(24, 0);
  EXPECT_FALSE(parse_pcap(bad_magic).ok());
  // Truncated packet body.
  Trace trace;
  trace.record(0, "p", Bytes(64, 0));
  Bytes pcap = to_pcap(trace);
  pcap.resize(pcap.size() - 10);
  EXPECT_FALSE(parse_pcap(pcap).ok());
}

// ---------------------------------------------------------------------------
// Trace

TEST(Trace, RecordsAndFilters) {
  Trace trace;
  const Bytes frame = net::build_udp(MacAddress::from_index(1),
                                     MacAddress::from_index(2),
                                     Ipv4Address{1, 1, 1, 1},
                                     Ipv4Address{2, 2, 2, 2}, 10, 20, Bytes(4, 0));
  trace.record(100, "p1", frame);
  trace.record(200, "p2", frame);
  trace.record(300, "p1", Bytes{1, 2});  // unparseable
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.count_if([](const net::ParsedPacket& p) {
              return p.udp && p.udp->dst_port == 20;
            }),
            2u);
  EXPECT_EQ(trace.parsed_at("p1").size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

TEST(Trace, RingCapDropsOldestAndCountsThem) {
  Trace trace(2);
  EXPECT_EQ(trace.max_entries(), 2u);
  trace.record(100, "p", Bytes{1});
  trace.record(200, "p", Bytes{2});
  EXPECT_EQ(trace.dropped(), 0u);
  trace.record(300, "p", Bytes{3});
  trace.record(400, "p", Bytes{4});
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped(), 2u);
  // Oldest-first retention: the survivors are the newest two.
  EXPECT_EQ(trace.entries().front().time, 300u);
  EXPECT_EQ(trace.entries().back().time, 400u);

  // Unbounded traces never drop.
  Trace unbounded;
  for (int i = 0; i < 100; ++i) unbounded.record(i, "p", Bytes{0});
  EXPECT_EQ(unbounded.size(), 100u);
  EXPECT_EQ(unbounded.dropped(), 0u);
}


// ---------------------------------------------------------------------------
// StreamLink against a reference model
//
// The reference is the byte-stream link as it was built first: each send
// copies its bytes into a chunk queue and schedules its own flush event. The
// link keeps one contiguous byte queue and one flush event per due instant;
// at each end it must deliver the same reads, at the same virtual times,
// under any mix of latency, jitter, mtu, stalls, cuts and mangling.

class OneEventPerSendLink {
 public:
  using DataFn = std::function<void(std::span<const std::uint8_t>)>;

  class End {
   public:
    void send(std::span<const std::uint8_t> data) {
      if (data.empty()) return;
      OneEventPerSendLink& link = *link_;
      if (!link.connected_) return;
      Bytes bytes(data.begin(), data.end());
      if (link.mangle_ > 0.0 && link.rng_ != nullptr) {
        for (auto& byte : bytes) {
          if (link.rng_->chance(link.mangle_)) {
            byte ^= static_cast<std::uint8_t>(1 + link.rng_->uniform(255));
          }
        }
      }
      peer_->enqueue(std::move(bytes));
    }
    void on_data(DataFn fn) { on_data_ = std::move(fn); }

   private:
    friend class OneEventPerSendLink;
    struct Chunk {
      Timestamp ready_at = 0;
      Bytes data;
    };

    void enqueue(Bytes data) {
      OneEventPerSendLink& link = *link_;
      Duration extra = 0;
      if (link.config_.jitter > 0 && link.rng_ != nullptr) {
        extra = static_cast<Duration>(link.rng_->uniform(
            static_cast<std::uint64_t>(link.config_.jitter) + 1));
      }
      const Timestamp ready = std::max(
          link.loop_.now() + link.config_.latency + extra, last_ready_);
      last_ready_ = ready;
      inbox_.push_back(Chunk{ready, std::move(data)});
      link.loop_.schedule_at(ready, [this] { flush(); });
    }

    void flush() {
      OneEventPerSendLink& link = *link_;
      if (!link.connected_ || link.stalled_) return;
      const Timestamp now = link.loop_.now();
      while (!inbox_.empty() && inbox_.front().ready_at <= now) {
        Bytes read = std::move(inbox_.front().data);
        inbox_.pop_front();
        while (!inbox_.empty() && inbox_.front().ready_at <= now &&
               (link.config_.mtu == 0 || read.size() < link.config_.mtu)) {
          Bytes& next = inbox_.front().data;
          read.insert(read.end(), next.begin(), next.end());
          inbox_.pop_front();
        }
        std::size_t offset = 0;
        while (offset < read.size()) {
          const std::size_t take =
              link.config_.mtu == 0
                  ? read.size() - offset
                  : std::min(link.config_.mtu, read.size() - offset);
          if (on_data_) {
            on_data_(std::span<const std::uint8_t>(read.data() + offset, take));
          }
          if (!link.connected_ || link.stalled_) return;
          offset += take;
        }
      }
    }

    OneEventPerSendLink* link_ = nullptr;
    End* peer_ = nullptr;
    DataFn on_data_;
    std::deque<Chunk> inbox_;
    Timestamp last_ready_ = 0;
  };

  OneEventPerSendLink(EventLoop& loop, StreamLink::Config config, Rng* rng)
      : loop_(loop), config_(config), rng_(rng) {
    a_.link_ = this;
    b_.link_ = this;
    a_.peer_ = &b_;
    b_.peer_ = &a_;
  }
  End& a() { return a_; }
  End& b() { return b_; }
  void cut() {
    if (!connected_) return;
    connected_ = false;
    for (End* end : {&a_, &b_}) {
      end->inbox_.clear();
      end->last_ready_ = 0;
    }
  }
  void restore() { connected_ = true; }
  void stall() { stalled_ = true; }
  void unstall() {
    if (!stalled_) return;
    stalled_ = false;
    a_.flush();
    b_.flush();
  }
  void set_mangle(double probability) { mangle_ = probability; }

 private:
  EventLoop& loop_;
  StreamLink::Config config_;
  Rng* rng_;
  double mangle_ = 0.0;
  bool connected_ = true;
  bool stalled_ = false;
  End a_;
  End b_;
};

/// One read as an end saw it.
struct Read {
  Timestamp at = 0;
  Bytes bytes;
  bool operator==(const Read&) const = default;
};

/// A scripted fault or send, applied at `at` to whichever link runs it.
struct StreamOp {
  enum class Kind { SendA, SendB, Stall, Unstall, Cut, Restore } kind;
  Timestamp at = 0;
  Bytes bytes;
};

/// Runs `ops` against one link and records every read at both ends. End b
/// echoes reads that start with an even byte back to a from inside its
/// handler; end a cuts the link from inside its handler when a read carries
/// 0xEE — the two re-entrant paths a channel's handlers can take.
template <typename Link>
std::pair<std::vector<Read>, std::vector<Read>> run_stream_script(
    const StreamLink::Config& config, double mangle, std::uint64_t link_seed,
    const std::vector<StreamOp>& ops) {
  EventLoop loop;
  Rng rng(link_seed);
  Link link(loop, config, &rng);
  link.set_mangle(mangle);
  std::vector<Read> at_a;
  std::vector<Read> at_b;
  link.a().on_data([&](std::span<const std::uint8_t> d) {
    at_a.push_back({loop.now(), Bytes(d.begin(), d.end())});
    if (std::find(d.begin(), d.end(), 0xEE) != d.end()) link.cut();
  });
  link.b().on_data([&](std::span<const std::uint8_t> d) {
    at_b.push_back({loop.now(), Bytes(d.begin(), d.end())});
    if (d[0] % 2 == 0) link.b().send(d);
  });
  for (const StreamOp& op : ops) {
    loop.schedule_at(op.at, [&link, &op] {
      switch (op.kind) {
        case StreamOp::Kind::SendA: link.a().send(op.bytes); break;
        case StreamOp::Kind::SendB: link.b().send(op.bytes); break;
        case StreamOp::Kind::Stall: link.stall(); break;
        case StreamOp::Kind::Unstall: link.unstall(); break;
        case StreamOp::Kind::Cut: link.cut(); break;
        case StreamOp::Kind::Restore: link.restore(); break;
      }
    });
  }
  loop.run_all();
  return {std::move(at_a), std::move(at_b)};
}

TEST(StreamLinkProperty, DeliversWhatOneEventPerSendDelivers) {
  constexpr std::size_t kMtus[] = {0, 1, 5, 16, 64, 1500};
  std::size_t reads = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    StreamLink::Config config;
    config.latency = static_cast<Duration>(rng.uniform(4) * 50);
    config.jitter = rng.chance(0.5) ? static_cast<Duration>(rng.uniform(200)) : 0;
    config.mtu = kMtus[rng.uniform(std::size(kMtus))];
    const double mangle = rng.chance(0.3) ? 0.02 : 0.0;

    // Sends cluster on a coarse time grid so that many share an instant.
    std::vector<StreamOp> ops;
    const int n_ops = 20 + static_cast<int>(rng.uniform(60));
    for (int i = 0; i < n_ops; ++i) {
      StreamOp op;
      op.at = static_cast<Timestamp>(rng.uniform(40) * 25);
      const std::uint64_t pick = rng.uniform(100);
      if (pick < 40) {
        op.kind = StreamOp::Kind::SendA;
      } else if (pick < 80) {
        op.kind = StreamOp::Kind::SendB;
      } else if (pick < 86) {
        op.kind = StreamOp::Kind::Stall;
      } else if (pick < 92) {
        op.kind = StreamOp::Kind::Unstall;
      } else if (pick < 96) {
        op.kind = StreamOp::Kind::Cut;
      } else {
        op.kind = StreamOp::Kind::Restore;
      }
      op.bytes.resize(1 + rng.uniform(40));
      for (auto& byte : op.bytes) byte = static_cast<std::uint8_t>(rng.uniform(256));
      ops.push_back(std::move(op));
    }
    // Leave the link connected and flowing so every backlog drains.
    ops.push_back({StreamOp::Kind::Restore, 1200, {}});
    ops.push_back({StreamOp::Kind::Unstall, 1200, {}});

    const std::uint64_t link_seed = seed * 7919;
    const auto expected =
        run_stream_script<OneEventPerSendLink>(config, mangle, link_seed, ops);
    const auto actual = run_stream_script<StreamLink>(config, mangle, link_seed, ops);
    ASSERT_EQ(actual.first, expected.first) << "end a, seed " << seed;
    ASSERT_EQ(actual.second, expected.second) << "end b, seed " << seed;
    reads += expected.first.size() + expected.second.size();
  }
  EXPECT_GT(reads, 3000u);  // the scripts really exercised delivery
}

TEST(StreamLink, SendsDueTogetherShareOneFlushEvent) {
  EventLoop loop;
  StreamLink link(loop, {.latency = 100});
  std::vector<Bytes> reads;
  link.b().on_data([&](std::span<const std::uint8_t> d) {
    reads.emplace_back(d.begin(), d.end());
  });
  for (std::uint8_t i = 0; i < 10; ++i) link.a().send(Bytes{i});
  EXPECT_EQ(loop.pending(), 1u);  // one flush at now + latency
  EXPECT_EQ(loop.run_all(), 1u);
  ASSERT_EQ(reads.size(), 1u);  // coalesced into one read
  EXPECT_EQ(reads[0].size(), 10u);
}

}  // namespace
}  // namespace hw::sim
