// Bounded overwriting ring buffer: hwdb's row storage before rows became
// fixed-width records, kept as the storage of the tests' reference table
// (hwdb_test's OracleTable). The capacity bounds what the ring holds;
// storage grows to it as rows arrive.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hw {

/// Oldest entries are overwritten once capacity is reached. Iteration visits
/// entries oldest-first. Storage grows geometrically up to the capacity, never
/// past it, and the ring never allocates once full.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : cap_(capacity) {
    assert(capacity > 0 && "ring buffer needs nonzero capacity");
  }

  /// Inserts, overwriting the oldest entry when full. Returns true if an old
  /// entry was evicted.
  bool push(T value) {
    if (size_ < cap_) {
      // Not full: the entries sit at [0, size_) in order, so append.
      if (buf_.size() == buf_.capacity()) {
        buf_.reserve(std::min(cap_, std::max<std::size_t>(16, 2 * size_)));
      }
      buf_.push_back(std::move(value));
      ++size_;
      head_ = size_ == cap_ ? 0 : size_;
      return false;
    }
    buf_[head_] = std::move(value);
    head_ = head_ + 1 == cap_ ? 0 : head_ + 1;
    tail_ = head_;
    ++evicted_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Total entries overwritten since construction (hwdb exposes this so
  /// clients can detect data loss in long windows).
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

  /// Element `i` counting from the oldest (0) to the newest (size()-1).
  [[nodiscard]] const T& at(std::size_t i) const {
    assert(i < size_);
    const std::size_t slot = tail_ + i;
    return buf_[slot < cap_ ? slot : slot - cap_];
  }

  [[nodiscard]] const T& newest() const { return at(size_ - 1); }
  [[nodiscard]] const T& oldest() const { return at(0); }

  /// Destroys every entry; the storage is kept for the next fill.
  void clear() {
    buf_.clear();
    head_ = tail_ = size_ = 0;
  }

  /// Snapshot restore: takes `entries` (oldest first) as the ring's storage
  /// instead of copying them in. Beyond capacity the oldest are dropped and
  /// counted as evicted, as pushing them one by one would.
  void assign(std::vector<T>&& entries) {
    if (entries.size() > cap_) {
      const std::size_t excess = entries.size() - cap_;
      entries.erase(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(excess));
      evicted_ += excess;
    }
    if (entries.capacity() > cap_) entries.shrink_to_fit();
    buf_ = std::move(entries);
    size_ = buf_.size();
    head_ = size_ % cap_;
    tail_ = 0;
  }

  /// Snapshot-restore only: overwrites the eviction count after assign()
  /// reproduced the buffer's contents.
  void restore_evicted(std::uint64_t n) { evicted_ = n; }

  /// Visits entries oldest-first; stops early if `fn` returns false.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (!fn(at(i))) return;
    }
  }

  /// Visits entries newest-first; stops early if `fn` returns false. Windowed
  /// queries ([RANGE n] / [ROWS n]) scan from the newest end and stop at the
  /// window boundary, so cost is O(window), not O(table).
  template <typename Fn>
  void for_each_newest_first(Fn&& fn) const {
    for (std::size_t i = size_; i > 0; --i) {
      if (!fn(at(i - 1))) return;
    }
  }

 private:
  std::vector<T> buf_;  // [0, size_) in order until full, then cap_ slots
  std::size_t cap_;
  std::size_t head_ = 0;  // next write slot once full
  std::size_t tail_ = 0;  // oldest element
  std::size_t size_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace hw
