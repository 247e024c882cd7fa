#include "sim/event_loop.hpp"

#include <algorithm>

namespace hw::sim {

EventLoop::EventId EventLoop::schedule_at(Timestamp when, Callback fn) {
  check_owner();
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  if (++s.uses == 0) s.uses = 1;  // on wrap: a use count of 0 is never issued
  s.seq = next_seq_++;
  s.fn = std::move(fn);
  ++live_;
  heap_.push_back(Key{std::max(when, now_), s.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventId{s.uses} << 32 | slot;
}

void EventLoop::free_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.seq = 0;
  s.fn = nullptr;
  free_slots_.push_back(slot);
  --live_;
}

void EventLoop::cancel(EventId id) {
  check_owner();
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  // Fired, cancelled, or the slot now holds a later event.
  if (s.seq == 0 || s.uses != id >> 32) return;
  free_slot(slot);
}

void EventLoop::skip_stale() {
  while (!heap_.empty() && slots_[heap_.front().slot].seq != heap_.front().seq) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventLoop::pop_one(Timestamp deadline) {
  skip_stale();
  if (heap_.empty() || heap_.front().when > deadline) return false;
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out and free its slot before running it: the callback
  // may schedule (growing slots_) or cancel its own, now stale, id.
  Callback fn = std::move(slots_[top.slot].fn);
  free_slot(top.slot);
  now_ = top.when;
  ++executed_;
  fn();
  return true;
}

Timestamp EventLoop::next_event_at() {
  check_owner();
  skip_stale();
  return heap_.empty() ? kNoEvent : heap_.front().when;
}

std::size_t EventLoop::run_until(Timestamp deadline) {
  check_owner();
  std::size_t count = 0;
  while (pop_one(deadline)) ++count;
  now_ = std::max(now_, deadline);
  return count;
}

std::size_t EventLoop::run_all() {
  check_owner();
  std::size_t count = 0;
  while (pop_one(~Timestamp{0})) ++count;
  return count;
}

}  // namespace hw::sim
