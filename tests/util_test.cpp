// Unit tests for the util layer: wire codecs, addresses, containers, JSON.
#include <gtest/gtest.h>

#include "util/addr.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"
#include "util/ring_buffer.hpp"
#include "util/strings.hpp"
#include "util/token_bucket.hpp"

namespace hw {
namespace {

// ---------------------------------------------------------------------------
// ByteWriter / ByteReader

TEST(Bytes, WriteReadRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ull);
  w.fixed_string("hi", 4);
  const Bytes buf = std::move(w).take();
  ASSERT_EQ(buf.size(), 1u + 2 + 4 + 8 + 4);

  ByteReader r(buf);
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0102030405060708ull);
  EXPECT_EQ(r.fixed_string(4).value(), "hi");
  EXPECT_TRUE(r.empty());
}

TEST(Bytes, NetworkByteOrderOnTheWire) {
  ByteWriter w;
  w.u16(0x0102);
  w.u32(0x03040506);
  const Bytes buf = w.bytes();
  EXPECT_EQ(buf[0], 0x01);  // big-endian: MSB first
  EXPECT_EQ(buf[1], 0x02);
  EXPECT_EQ(buf[2], 0x03);
  EXPECT_EQ(buf[5], 0x06);
}

TEST(Bytes, ShortReadsFailCleanly) {
  Bytes buf{0x01, 0x02};
  ByteReader r(buf);
  EXPECT_TRUE(r.u16().ok());
  EXPECT_FALSE(r.u16().ok());
  EXPECT_FALSE(r.u8().ok());
  EXPECT_FALSE(r.raw(1).ok());
  EXPECT_FALSE(r.skip(1).ok());
}

TEST(Bytes, PatchU16) {
  ByteWriter w;
  w.u16(0);
  w.u32(42);
  w.patch_u16(0, 0xbeef);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u16().value(), 0xbeef);
}

TEST(Bytes, FixedStringTruncatesAndPads) {
  ByteWriter w;
  w.fixed_string("abcdef", 4);
  w.fixed_string("x", 4);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.fixed_string(4).value(), "abcd");
  EXPECT_EQ(r.fixed_string(4).value(), "x");  // NUL padding stripped
}

TEST(Bytes, HexDump) {
  Bytes buf{0x00, 0xff, 0x10};
  EXPECT_EQ(hex_dump(buf), "00 ff 10");
  EXPECT_EQ(hex_dump(buf, 2), "00 ff ...");
}

// ---------------------------------------------------------------------------
// Addresses

TEST(MacAddress, ParseAndFormat) {
  auto mac = MacAddress::parse("Aa:bB:cC:01:23:45");
  ASSERT_TRUE(mac.ok());
  EXPECT_EQ(mac.value().to_string(), "aa:bb:cc:01:23:45");
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::parse("").ok());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee").ok());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee:f").ok());
  EXPECT_FALSE(MacAddress::parse("aa-bb-cc-dd-ee-ff").ok());
  EXPECT_FALSE(MacAddress::parse("gg:bb:cc:dd:ee:ff").ok());
  EXPECT_FALSE(MacAddress::parse("aa:bb:cc:dd:ee:ff:00").ok());
}

TEST(MacAddress, Classification) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  EXPECT_TRUE(MacAddress::parse("01:00:5e:00:00:01").value().is_multicast());
  EXPECT_FALSE(MacAddress::from_index(7).is_multicast());
  EXPECT_TRUE(MacAddress::zero().is_zero());
}

TEST(MacAddress, FromIndexIsStableAndUnique) {
  EXPECT_EQ(MacAddress::from_index(1), MacAddress::from_index(1));
  EXPECT_NE(MacAddress::from_index(1), MacAddress::from_index(2));
  EXPECT_EQ(MacAddress::from_index(0x010203).to_string(), "02:00:00:01:02:03");
}

TEST(MacAddress, ToU64PacksOctetsIntoLow48Bits) {
  EXPECT_EQ(MacAddress::from_index(0x010203).to_u64(), 0x020000010203u);
  EXPECT_EQ(MacAddress::broadcast().to_u64(), 0xffffffffffffu);
  EXPECT_EQ(MacAddress::zero().to_u64(), 0u);
  EXPECT_EQ(MacAddress::parse("aa:bb:cc:dd:ee:f0").value().to_u64(),
            0xaabbccddeef0u);
}

TEST(Ipv4Address, ParseAndFormat) {
  auto ip = Ipv4Address::parse("192.168.1.42");
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip.value().to_string(), "192.168.1.42");
  EXPECT_EQ(ip.value(), (Ipv4Address{192, 168, 1, 42}));
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").ok());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").ok());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").ok());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.256").ok());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").ok());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 ").ok());
}

TEST(Ipv4Address, SubnetMembership) {
  const Ipv4Subnet subnet{Ipv4Address{192, 168, 1, 0}, 24};
  EXPECT_TRUE(subnet.contains(Ipv4Address{192, 168, 1, 200}));
  EXPECT_FALSE(subnet.contains(Ipv4Address{192, 168, 2, 1}));
  EXPECT_EQ(subnet.mask().to_string(), "255.255.255.0");
  EXPECT_EQ((Ipv4Subnet{Ipv4Address{10, 0, 0, 0}, 8}).mask().to_string(),
            "255.0.0.0");
}

TEST(Ipv4Address, SameSubnetEdgeCases) {
  const Ipv4Address a{192, 168, 1, 1};
  EXPECT_TRUE(a.same_subnet(Ipv4Address{10, 0, 0, 1}, 0));   // /0 matches all
  EXPECT_TRUE(a.same_subnet(a, 32));
  EXPECT_FALSE(a.same_subnet(Ipv4Address{192, 168, 1, 2}, 32));
}

// ---------------------------------------------------------------------------
// RingBuffer

TEST(RingBuffer, FillsThenOverwritesOldest) {
  RingBuffer<int> ring(3);
  EXPECT_FALSE(ring.push(1));
  EXPECT_FALSE(ring.push(2));
  EXPECT_FALSE(ring.push(3));
  EXPECT_TRUE(ring.push(4));  // evicts 1
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.oldest(), 2);
  EXPECT_EQ(ring.newest(), 4);
  EXPECT_EQ(ring.evicted(), 1u);
}

TEST(RingBuffer, IterationOrder) {
  RingBuffer<int> ring(4);
  for (int i = 1; i <= 6; ++i) ring.push(i);
  std::vector<int> fwd;
  ring.for_each([&](int v) {
    fwd.push_back(v);
    return true;
  });
  EXPECT_EQ(fwd, (std::vector<int>{3, 4, 5, 6}));
  std::vector<int> rev;
  ring.for_each_newest_first([&](int v) {
    rev.push_back(v);
    return true;
  });
  EXPECT_EQ(rev, (std::vector<int>{6, 5, 4, 3}));
}

TEST(RingBuffer, EarlyTermination) {
  RingBuffer<int> ring(8);
  for (int i = 0; i < 8; ++i) ring.push(i);
  int count = 0;
  ring.for_each_newest_first([&](int) { return ++count < 3; });
  EXPECT_EQ(count, 3);
}

TEST(RingBuffer, ConstantMemory) {
  RingBuffer<int> ring(16);
  for (int i = 0; i < 100000; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 16u);
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(ring.evicted(), 100000u - 16);
  EXPECT_EQ(ring.newest(), 99999);
}

// ---------------------------------------------------------------------------
// Strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(split_whitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(to_upper("aBc"), "ABC");
  EXPECT_TRUE(iequals("SELECT", "select"));
  EXPECT_FALSE(iequals("a", "ab"));
  EXPECT_TRUE(starts_with_i("Content-Length: 4", "content-length"));
}

TEST(Strings, DomainMatches) {
  EXPECT_TRUE(domain_matches("www.facebook.com", "*.facebook.com"));
  EXPECT_TRUE(domain_matches("facebook.com", "*.facebook.com"));
  EXPECT_TRUE(domain_matches("a.b.facebook.com", "*.facebook.com"));
  EXPECT_FALSE(domain_matches("notfacebook.com", "*.facebook.com"));
  EXPECT_FALSE(domain_matches("facebook.com.evil.net", "*.facebook.com"));
  EXPECT_TRUE(domain_matches("Example.COM", "example.com"));
  EXPECT_FALSE(domain_matches("sub.example.com", "example.com"));
}

// ---------------------------------------------------------------------------
// JSON

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_EQ(Json::parse("true").value().as_bool(), true);
  EXPECT_EQ(Json::parse("-12.5").value().as_number(), -12.5);
  EXPECT_EQ(Json::parse("\"hi\\n\"").value().as_string(), "hi\n");
  EXPECT_EQ(Json::parse("1e3").value().as_number(), 1000.0);
}

TEST(Json, ParseNested) {
  auto j = Json::parse(R"({"a": [1, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value()["a"].as_array().size(), 2u);
  EXPECT_EQ(j.value()["a"].as_array()[1]["b"].as_string(), "c");
  EXPECT_TRUE(j.value()["d"].is_object());
  EXPECT_TRUE(j.value()["missing"].is_null());
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
}

TEST(Json, DumpRoundTrip) {
  Json j(JsonObject{});
  j.set("n", 42);
  j.set("s", "quote\"and\\slash");
  j.set("arr", Json(JsonArray{Json(1), Json(false), Json(nullptr)}));
  const std::string text = j.dump();
  auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()["n"].as_int(), 42);
  EXPECT_EQ(parsed.value()["s"].as_string(), "quote\"and\\slash");
  EXPECT_EQ(parsed.value()["arr"].as_array().size(), 3u);
}

TEST(Json, IntegersDumpWithoutExponent) {
  Json j(static_cast<std::int64_t>(3955420));
  EXPECT_EQ(j.dump(), "3955420");
}

TEST(Json, UnicodeEscape) {
  auto j = Json::parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().as_string(), "A\xc3\xa9");
}

TEST(Json, DeepNestingRejected) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::parse(deep).ok());
}

// ---------------------------------------------------------------------------
// Logging

namespace {
std::vector<std::string>* g_captured = nullptr;
void capture_sink(LogLevel, std::string_view module, std::string_view msg) {
  g_captured->push_back(std::string(module) + ": " + std::string(msg));
}
}  // namespace

TEST(Logging, LevelGateAndSinkCapture) {
  std::vector<std::string> captured;
  g_captured = &captured;
  set_log_sink(&capture_sink);
  const LogLevel before = log_level();

  set_log_level(LogLevel::Warn);
  HW_LOG_DEBUG("mod", "dropped %d", 1);
  HW_LOG_INFO("mod", "also dropped");
  HW_LOG_WARN("mod", "kept %s %d", "arg", 2);
  HW_LOG_ERROR("mod", "kept too");
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "mod: kept arg 2");
  EXPECT_EQ(captured[1], "mod: kept too");

  set_log_level(LogLevel::Off);
  HW_LOG_ERROR("mod", "silenced");
  EXPECT_EQ(captured.size(), 2u);

  set_log_sink(nullptr);
  set_log_level(before);
  g_captured = nullptr;
}

// ---------------------------------------------------------------------------
// TokenBucket

TEST(TokenBucket, BurstThenRateLimits) {
  TokenBucket bucket(1000, 500);  // 1000 B/s, 500 B burst
  EXPECT_TRUE(bucket.try_consume(0, 500));
  EXPECT_FALSE(bucket.try_consume(0, 1));
  // After 100ms, 100 bytes refilled.
  EXPECT_TRUE(bucket.try_consume(100 * kMillisecond, 100));
  EXPECT_FALSE(bucket.try_consume(100 * kMillisecond, 10));
}

TEST(TokenBucket, AvailableAt) {
  TokenBucket bucket(1000, 100);
  ASSERT_TRUE(bucket.try_consume(0, 100));
  const Timestamp when = bucket.available_at(0, 50);
  EXPECT_GE(when, 50 * kMillisecond);
  EXPECT_LE(when, 60 * kMillisecond);
}

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    const auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
}  // namespace hw
