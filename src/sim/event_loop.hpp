// Discrete-event scheduler with a virtual microsecond clock. Everything in
// the reproduction (hosts, links, datapath timeouts, hwdb subscriptions,
// artifact animation) runs off this loop, making runs deterministic.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#ifndef NDEBUG
#include <atomic>
#include <thread>
#endif

#include "util/types.hpp"

namespace hw::sim {

class EventLoop {
 public:
  using Callback = std::function<void()>;
  /// Handle for cancelling a scheduled event: the event's callback slot in
  /// the low 32 bits, that slot's use count in the high 32. Use counts start
  /// at 1, so 0 is never a valid id.
  using EventId = std::uint64_t;

  EventLoop() = default;
  /// Starts the clock at `origin` instead of zero. A home restored from a
  /// checkpoint constructs its loop at the capture time, so relative delays
  /// during reconstruction land on the same absolute instants they did in
  /// the home's first life.
  explicit EventLoop(Timestamp origin) : now_(origin) {}

  [[nodiscard]] Timestamp now() const { return now_; }

  /// Schedules `fn` to run at absolute time `when` (clamped to >= now).
  EventId schedule_at(Timestamp when, Callback fn);
  /// Schedules `fn` to run `delay` after now.
  EventId schedule(Duration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  /// Cancels a pending event in O(1); no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Runs events until the queue is empty or the virtual clock passes
  /// `deadline`. Returns the number of events executed.
  std::size_t run_until(Timestamp deadline);
  std::size_t run_for(Duration d) { return run_until(now_ + d); }
  /// Drains every pending event regardless of time. Use in tests only;
  /// periodic timers must be stopped first or this never returns.
  std::size_t run_all();

  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// next_event_at() when nothing is pending.
  static constexpr Timestamp kNoEvent = ~Timestamp{0};
  /// Virtual time of the earliest pending (non-cancelled) event without
  /// running it — what a residency manager records as a hibernated home's
  /// next-wakeup so no timer is ever missed. Discards the heap keys of
  /// cancelled events along the way, exactly as pop_one() would.
  [[nodiscard]] Timestamp next_event_at();

  // -- Thread ownership (debug builds) -----------------------------------------
  // A loop — and with it an entire simulated home — belongs to exactly one
  // thread: the first thread that schedules or runs it. A fleet
  // executes many loops concurrently on a worker pool; scheduling into a
  // foreign home's loop would corrupt its heap silently, so in debug builds
  // every entry point asserts ownership and fails loudly instead.

  /// True when the calling thread owns this loop (or no owner is bound yet).
  /// Always true in release builds.
  [[nodiscard]] bool owned_by_caller() const {
#ifndef NDEBUG
    const auto owner = owner_.load(std::memory_order_relaxed);
    return owner == std::thread::id{} || owner == std::this_thread::get_id();
#else
    return true;
#endif
  }

 private:
#ifndef NDEBUG
  /// Binds the loop to the calling thread on first use, then asserts every
  /// later use comes from that same thread.
  void check_owner() {
    std::thread::id expected{};
    if (owner_.compare_exchange_strong(expected, std::this_thread::get_id(),
                                       std::memory_order_relaxed)) {
      return;
    }
    assert(expected == std::this_thread::get_id() &&
           "sim::EventLoop used from a thread that does not own it");
  }
  mutable std::atomic<std::thread::id> owner_{};
#else
  void check_owner() {}
#endif

  // The heap orders plain keys; callbacks stay put in slots_. A cancel
  // frees its slot at once and leaves the key behind: the key is stale once
  // its slot's seq no longer matches, and pop_one() discards it.
  struct Key {
    Timestamp when;
    std::uint64_t seq;  // schedule order: FIFO among same-time events
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;  // the pending event's key; 0 while the slot is free
    std::uint32_t uses = 0;
  };

  bool pop_one(Timestamp deadline);
  /// Drops stale keys off the top of the heap.
  void skip_stale();
  void free_slot(std::uint32_t slot);

  Timestamp now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Repeating timer helper: reschedules itself every `period` until stopped.
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop& loop, Duration period, EventLoop::Callback fn)
      : loop_(loop), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }
  /// Starts with the first fire at absolute time `first` (clamped to now),
  /// then every `period` after it. A restored home re-arms its periodic
  /// drivers with this so their tick phase matches the uninterrupted run.
  void start_at(Timestamp first) {
    if (running_) return;
    running_ = true;
    pending_ = loop_.schedule_at(first, [this] {
      if (!running_) return;
      fn_();
      if (running_) arm();
    });
  }
  void stop() {
    if (!running_) return;
    running_ = false;
    loop_.cancel(pending_);
  }
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm() {
    pending_ = loop_.schedule(period_, [this] {
      if (!running_) return;
      fn_();
      if (running_) arm();
    });
  }

  EventLoop& loop_;
  Duration period_;
  EventLoop::Callback fn_;
  bool running_ = false;
  EventLoop::EventId pending_ = 0;
};

}  // namespace hw::sim
