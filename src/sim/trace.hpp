// Frame trace sink for tests and debugging: records (time, direction, frame)
// and offers simple filters, like a tcpdump for the simulated wire.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "util/types.hpp"

namespace hw::sim {

struct TraceEntry {
  Timestamp time = 0;
  std::string point;  // capture point label, e.g. "port1-in"
  Bytes frame;
};

class Trace {
 public:
  Trace() = default;
  /// Caps retention at `max_entries`: once full, recording drops the oldest
  /// entry and counts it in dropped(). 0 means unbounded (unit tests that
  /// inspect a whole short capture).
  explicit Trace(std::size_t max_entries) : max_entries_(max_entries) {}

  /// Takes the frame by value so callers that are done with their buffer
  /// move it in; forwarding shims pay the same one copy they always did.
  void record(Timestamp time, std::string point, Bytes frame) {
    if (max_entries_ != 0 && entries_.size() >= max_entries_) {
      entries_.erase(entries_.begin());
      ++dropped_;
    }
    entries_.push_back(TraceEntry{time, std::move(point), std::move(frame)});
  }

  [[nodiscard]] const std::vector<TraceEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Entries discarded to honour the cap.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  void clear() { entries_.clear(); }

  /// Counts entries whose parsed form satisfies `pred` (unparseable frames
  /// are skipped).
  std::size_t count_if(
      const std::function<bool(const net::ParsedPacket&)>& pred) const;

  /// Returns parsed packets at a capture point. They view the recorded
  /// frames (see net::ParsedPacket), so they are valid until the trace
  /// records again or is cleared.
  std::vector<net::ParsedPacket> parsed_at(const std::string& point) const;

 private:
  std::size_t max_entries_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEntry> entries_;
};

}  // namespace hw::sim
