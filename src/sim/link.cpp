#include "sim/link.hpp"

#include "util/rand.hpp"

namespace hw::sim {

LinkChannel::LinkChannel(EventLoop& loop, Config config, Rng* rng)
    : loop_(loop), config_(config), rng_(rng) {}

bool LinkChannel::send(const Bytes& frame) { return send(Bytes(frame)); }

bool LinkChannel::send(Bytes&& frame) {
  if (sink_ == nullptr) return false;
  if (in_flight_.size() >= config_.queue_limit) {
    metrics_.dropped_frames.inc();
    return false;
  }
  if (rng_ != nullptr && config_.loss_probability > 0 &&
      rng_->chance(config_.loss_probability)) {
    metrics_.dropped_frames.inc();
    return false;
  }

  // Serialization: frames queue behind each other on the wire.
  const Duration tx_time =
      config_.bandwidth_bps == 0
          ? 0
          : static_cast<Duration>(frame.size() * 8 * kSecond /
                                  config_.bandwidth_bps);
  const Timestamp start = std::max(loop_.now(), busy_until_);
  busy_until_ = start + tx_time;
  const Timestamp arrival = busy_until_ + config_.latency;

  metrics_.tx_frames.inc();
  metrics_.tx_bytes.inc(frame.size());
  // Arrivals never decrease (busy_until_ only grows, latency is fixed) and
  // same-time events run in scheduling order, so each delivery event takes
  // the oldest frame in flight. The event captures only `this`, which fits
  // std::function's inline buffer: a hop allocates nothing beyond the frame.
  in_flight_.push_back(std::move(frame));
  loop_.schedule_at(arrival, [this] {
    const Bytes delivered = std::move(in_flight_.front());
    in_flight_.pop_front();
    if (sink_ != nullptr) sink_->deliver(delivered);
  });
  return true;
}

}  // namespace hw::sim
