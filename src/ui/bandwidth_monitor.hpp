// Figure 1 backend: "per-device per-protocol bandwidth consumption". The
// iPhone app subscribed to hwdb query results; this component does exactly
// that — it is a pure hwdb client (no private router hooks) and renders the
// same rows the display would plot.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "hwdb/database.hpp"

namespace hw::ui {

struct ProtocolUsage {
  std::string app;        // "web", "streaming", ... (the imperfect mapping)
  double bytes_per_sec = 0;
};

struct DeviceBandwidth {
  std::string device;     // MAC string as stored in Flows
  std::string label;      // friendly name if the caller supplied a mapping
  double total_bytes_per_sec = 0;
  std::vector<ProtocolUsage> protocols;  // sorted descending
};

class BandwidthMonitor {
 public:
  struct Config {
    std::uint32_t window_secs = 10;  // sliding window of the display
    Duration refresh = kSecond;      // subscription period
  };

  BandwidthMonitor(hwdb::Database& db, Config config);
  ~BandwidthMonitor();

  /// Optional MAC → friendly-name mapping (from GET /api/devices metadata).
  void set_label(const std::string& mac, std::string label);

  /// Latest per-device view (updated on each subscription fire).
  [[nodiscard]] const std::vector<DeviceBandwidth>& devices() const {
    return devices_;
  }
  /// Per-protocol breakdown for one device (the right-hand side of Fig 5's
  /// screenshot: usage per protocol for "Tom's Mac Air").
  [[nodiscard]] std::vector<ProtocolUsage> device_breakdown(
      const std::string& mac) const;
  [[nodiscard]] double total_bytes_per_sec() const;
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

  /// Forces an immediate refresh (normally subscription-driven).
  void refresh();

  /// Text rendering of the display (examples/bench output).
  [[nodiscard]] std::string render() const;

 private:
  void apply(const hwdb::ResultSet& rs);

  hwdb::Database& db_;
  Config config_;
  hwdb::SelectQuery query_;  // the Figure-1 query, parsed once
  hwdb::SubscriptionId sub_ = 0;
  std::vector<DeviceBandwidth> devices_;
  std::map<std::string, std::string> labels_;
  std::uint64_t updates_ = 0;
};

}  // namespace hw::ui
