// Interposers on the program's public seams, installed only for the traced
// run. Each forwards exactly what it receives, so a traced run carries the
// same frames and messages as an untraced one.
#pragma once

#include <vector>

#include "sim/link.hpp"
#include "trace.hpp"

namespace perfbench {

/// Sits between a wired device's link and its datapath port
/// (LinkChannel::connect). Opens the openflow.ingress span — the datapath's
/// ingress plus the egress link enqueue it triggers — and keeps the first
/// frames for the net-layer parse replay.
class LinkShim final : public hw::sim::FrameSink {
 public:
  static constexpr std::size_t kCaptureFrames = 256;

  LinkShim(hw::sim::FrameSink* next, std::vector<hw::Bytes>* capture)
      : next_(next),
        span_(tracer().intern("openflow.ingress")),
        capture_(capture) {}

  void deliver(const hw::Bytes& frame) override {
    if (capture_->size() < kCaptureFrames && tracer().enabled()) {
      UncountedScope uncounted;
      capture_->push_back(frame);
    }
    Span s(span_);
    next_->deliver(frame);
  }

 private:
  hw::sim::FrameSink* next_;
  int span_;
  std::vector<hw::Bytes>* capture_;
};

}  // namespace perfbench
