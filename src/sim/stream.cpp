#include "sim/stream.hpp"

#include <algorithm>

namespace hw::sim {

StreamLink::StreamLink(EventLoop& loop, Config config, Rng* rng)
    : loop_(loop), config_(config), rng_(rng) {
  a_.link_ = this;
  b_.link_ = this;
  a_.peer_ = &b_;
  b_.peer_ = &a_;
}

void StreamLink::End::send(std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  StreamLink& link = *link_;
  if (!link.connected_) return;  // TCP after RST: writes go nowhere
  link.metrics_.tx_bytes.inc(data.size());
  peer_->enqueue(data);
}

void StreamLink::End::enqueue(std::span<const std::uint8_t> data) {
  StreamLink& link = *link_;
  const std::size_t begin = inbox_.size();
  inbox_.insert(inbox_.end(), data.begin(), data.end());
  if (link.mangle_ > 0.0 && link.rng_ != nullptr) {
    for (std::size_t i = begin; i < inbox_.size(); ++i) {
      if (link.rng_->chance(link.mangle_)) {
        inbox_[i] ^= static_cast<std::uint8_t>(1 + link.rng_->uniform(255));
        link.metrics_.mangled_bytes.inc();
      }
    }
  }
  Duration extra = 0;
  if (link.config_.jitter > 0 && link.rng_ != nullptr) {
    extra = static_cast<Duration>(link.rng_->uniform(
        static_cast<std::uint64_t>(link.config_.jitter) + 1));
  }
  // The stream is ordered: a jittered send never overtakes an earlier one.
  const Timestamp ready =
      std::max(link.loop_.now() + link.config_.latency + extra, last_ready_);
  last_ready_ = ready;
  marks_.push_back(Mark{ready, inbox_.size()});
  // Ready times only grow, so a send due at the instant of the latest
  // pending flush rides on that flush.
  if (flush_at_ == ready) return;
  flush_at_ = ready;
  link.loop_.schedule_at(ready, [this, ready] {
    if (flush_at_ == ready) flush_at_ = kNoFlush;
    flush();
  });
}

void StreamLink::End::flush() {
  StreamLink& link = *link_;
  if (!link.connected_ || link.stalled_) return;
  ++flushing_;
  deliver_due();
  // Offsets stay absolute while any flush of this end is running.
  if (--flushing_ == 0) compact();
}

void StreamLink::End::deliver_due() {
  StreamLink& link = *link_;
  const Timestamp now = link.loop_.now();
  const std::size_t mtu = link.config_.mtu;
  const std::uint64_t drops = drops_;
  // Drain every send that is due. Consecutive due sends merge into one read
  // (coalescing) until the read reaches the mtu; an mtu bounds each read and
  // spills the remainder into further reads at the same instant (partial
  // frames).
  while (marks_head_ < marks_.size() && marks_[marks_head_].ready_at <= now) {
    const std::size_t begin = inbox_head_;
    std::size_t end = marks_[marks_head_++].end;
    while (marks_head_ < marks_.size() && marks_[marks_head_].ready_at <= now &&
           (mtu == 0 || end - begin < mtu)) {
      end = marks_[marks_head_++].end;
    }
    inbox_head_ = end;
    for (std::size_t offset = begin; offset < end;) {
      const std::size_t take = mtu == 0 ? end - offset : std::min(mtu, end - offset);
      link.metrics_.rx_bytes.inc(take);
      link.metrics_.rx_chunks.inc();
      if (on_data_) on_data_(std::span<const std::uint8_t>(inbox_.data() + offset, take));
      // Receiving may cut the link (a handler reacting to garbage); stop
      // delivering the rest of a stream that no longer exists.
      if (!link.connected_ || link.stalled_ || drops_ != drops) return;
      offset += take;
    }
  }
}

void StreamLink::End::compact() {
  // Only sends not yet due are left. Move them to the front once they are
  // no more than what was delivered before them, so each byte moves O(1)
  // times however many flushes it waits through.
  if (inbox_head_ == 0 || inbox_.size() - inbox_head_ > inbox_head_) return;
  inbox_.erase(inbox_.begin(),
               inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_head_));
  marks_.erase(marks_.begin(),
               marks_.begin() + static_cast<std::ptrdiff_t>(marks_head_));
  for (Mark& mark : marks_) mark.end -= inbox_head_;
  inbox_head_ = 0;
  marks_head_ = 0;
  // A burst (a stall's backlog, a flow-stats reply) must not pin its size.
  constexpr std::size_t kKeepBytes = 4096;
  if (inbox_.empty()) release_if_oversized(inbox_, kKeepBytes);
}

void StreamLink::End::drop_in_flight() {
  link_->metrics_.cut_bytes.inc(inbox_.size() - inbox_head_);
  inbox_.clear();
  inbox_head_ = 0;
  marks_.clear();
  marks_head_ = 0;
  last_ready_ = 0;
  ++drops_;
}

void StreamLink::cut() {
  if (!connected_) return;
  connected_ = false;
  a_.drop_in_flight();
  b_.drop_in_flight();
}

void StreamLink::restore() { connected_ = true; }

void StreamLink::stall() { stalled_ = true; }

void StreamLink::unstall() {
  if (!stalled_) return;
  stalled_ = false;
  // Deliver whatever queued up during the stall (TCP would: the bytes were
  // acked into the socket buffer). A caller modelling a reset instead calls
  // cut()/restore().
  a_.flush();
  b_.flush();
}

}  // namespace hw::sim
