// Malformed-message property/fuzz suite for the stream framer and wire
// codec: random truncations, byte flips and garbage prefixes must surface as
// errors or rejected frames — never a crash, and never a permanent desync
// that keeps subsequent valid messages from being delivered. CI runs this
// suite under ASan/UBSan.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "openflow/messages.hpp"
#include "openflow/stream_channel.hpp"
#include "util/rand.hpp"

namespace hw::ofp {
namespace {

Envelope sample_flow_mod(std::uint32_t xid) {
  FlowMod mod;
  mod.match = Match::any().with_in_port(3).with_dl_type(0x0800);
  mod.cookie = 0x1122334455667788ull;
  mod.idle_timeout = 10;
  mod.actions = {ActionSetDlDst{MacAddress::from_index(9)},
                 ActionOutput{4, 0}};
  return {xid, mod};
}

TEST(OfpFuzz, GarbagePrefixNeverPermanentlyDesyncs) {
  Rng rng(0xfeedfaceull);
  for (int trial = 0; trial < 200; ++trial) {
    StreamFramer framer;
    Bytes garbage(rng.uniform(100));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.uniform(256));
    }
    std::size_t delivered = 0;
    const StreamFramer::FrameSink sink = [&delivered](const Bytes&) {
      ++delivered;
    };
    framer.feed(garbage, sink);

    // Whatever the garbage looked like — including bytes that resemble a
    // huge foreign-version frame the framer has to skip through — a stream
    // of valid messages must resume delivery within one max_frame's worth
    // of traffic.
    const Bytes valid = encode({static_cast<std::uint32_t>(trial), Hello{}});
    bool resumed = false;
    for (int i = 0; i < 20000 && !resumed; ++i) {
      delivered = 0;
      framer.feed(valid, sink);
      resumed = delivered > 0;
    }
    EXPECT_TRUE(resumed) << "permanent desync in trial " << trial;
  }
}

TEST(OfpFuzz, RandomTruncationThenReconnectDeliversCleanly) {
  Rng rng(2011);
  const Bytes full = encode(sample_flow_mod(77));
  for (int trial = 0; trial < 200; ++trial) {
    StreamFramer framer;
    const std::size_t cut = 1 + rng.uniform(static_cast<std::uint32_t>(full.size() - 1));
    std::vector<Bytes> frames;
    const StreamFramer::FrameSink sink = [&frames](const Bytes& f) {
      frames.push_back(f);
    };
    framer.feed(std::span<const std::uint8_t>(full.data(), cut), sink);
    EXPECT_TRUE(frames.empty()) << "truncated message must not be emitted";

    // The connection drops mid-message; the reconnect resets the framer and
    // the retransmitted message arrives exactly once.
    framer.reset();
    EXPECT_EQ(framer.buffered(), 0u);
    framer.feed(full, sink);
    ASSERT_EQ(frames.size(), 1u) << "trial " << trial;
    EXPECT_EQ(frames[0], full);
  }
}

TEST(OfpFuzz, ByteFlipsAtEveryPositionNeverCrashOrDesync) {
  Rng rng(42);
  const Bytes base = encode(sample_flow_mod(5));
  const Bytes trailer = encode({0xabcd, Hello{}});
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    StreamFramer framer;
    Bytes flipped = base;
    flipped[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    std::vector<Bytes> frames;
    const StreamFramer::FrameSink sink = [&frames](const Bytes& f) {
      frames.push_back(f);
    };
    framer.feed(flipped, sink);
    framer.feed(trailer, sink);

    // Every emitted frame must survive the decoder (errors are fine, crashes
    // and overreads are not — ASan/UBSan watch this loop).
    for (const Bytes& frame : frames) {
      const auto decoded = decode(frame);
      (void)decoded;
    }
    // A body flip leaves framing intact: the mangled frame is emitted and
    // the next valid message comes through aligned. Header flips (version or
    // length bytes) may force a skip or a byte-wise resync scan, which can't
    // promise immediate alignment — but a flood of valid messages must
    // always resume delivery.
    if (pos >= 4) {
      ASSERT_FALSE(frames.empty()) << "flip at " << pos;
      EXPECT_EQ(frames.back(), trailer) << "desync after flip at " << pos;
    } else {
      bool resumed = !frames.empty() && frames.back() == trailer;
      for (int i = 0; i < 20000 && !resumed; ++i) {
        frames.clear();
        framer.feed(trailer, sink);
        resumed = !frames.empty() && frames.back() == trailer;
      }
      EXPECT_TRUE(resumed) << "permanent desync after flip at " << pos;
    }
  }
}

TEST(OfpFuzz, ArbitraryChunkingDeliversIdenticalSequence) {
  Rng rng(7);
  std::vector<Bytes> messages;
  Bytes stream;
  for (std::uint32_t i = 0; i < 40; ++i) {
    Envelope env = (i % 3 == 0) ? Envelope{i, Hello{}}
                   : (i % 3 == 1)
                       ? Envelope{i, EchoRequest{Bytes(rng.uniform(64), 0x5a)}}
                       : sample_flow_mod(i);
    messages.push_back(encode(env));
    stream.insert(stream.end(), messages.back().begin(),
                  messages.back().end());
  }

  for (int trial = 0; trial < 100; ++trial) {
    StreamFramer framer;
    std::vector<Bytes> frames;
    const StreamFramer::FrameSink sink = [&frames](const Bytes& f) {
      frames.push_back(f);
    };
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(48), stream.size() - off);
      framer.feed(std::span<const std::uint8_t>(stream.data() + off, n), sink);
      off += n;
    }
    ASSERT_EQ(frames, messages) << "chunking changed the message sequence";
    EXPECT_EQ(framer.buffered(), 0u);
  }
}

TEST(OfpFuzz, MangledStreamsNeverCrashTheDecoder) {
  Rng rng(0xc0ffee);
  Bytes clean;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const Bytes msg = encode(sample_flow_mod(i));
    clean.insert(clean.end(), msg.begin(), msg.end());
  }
  for (int trial = 0; trial < 300; ++trial) {
    Bytes stream = clean;
    const int flips = 1 + static_cast<int>(rng.uniform(8));
    for (int f = 0; f < flips; ++f) {
      stream[rng.uniform(static_cast<std::uint32_t>(stream.size()))] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    StreamFramer framer;
    std::size_t decoded_frames = 0;
    std::size_t off = 0;
    const StreamFramer::FrameSink sink = [&decoded_frames](const Bytes& f) {
      const auto d = decode(f);
      if (d.ok()) ++decoded_frames;
    };
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.uniform(32), stream.size() - off);
      framer.feed(std::span<const std::uint8_t>(stream.data() + off, n), sink);
      off += n;
    }
    // Most messages survive a handful of flips; the point is that none of
    // the mangled ones took the process down.
    EXPECT_LE(decoded_frames, 20u);
  }
}

TEST(OfpFuzz, ResyncScanIsLinearInTheBytesItSheds) {
  // 4 MiB of zeros then one HELLO, in one read: the scan sheds every zero
  // byte as one bad run and re-anchors on the HELLO. Shedding by moving the
  // rest of the buffer per byte took minutes here; by offset it is linear.
  Bytes stream(4u << 20, 0);
  const Bytes hello = encode({42, Hello{}});
  stream.insert(stream.end(), hello.begin(), hello.end());
  StreamFramer framer;
  std::vector<Bytes> frames;
  const auto start = std::chrono::steady_clock::now();
  framer.feed(stream, [&frames](const Bytes& f) { frames.push_back(f); });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], hello);
  EXPECT_EQ(framer.stats().frames_bad.value(), 1u);
  EXPECT_EQ(framer.buffered(), 0u);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

}  // namespace
}  // namespace hw::ofp
