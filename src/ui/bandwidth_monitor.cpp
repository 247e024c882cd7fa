#include "ui/bandwidth_monitor.hpp"

#include <algorithm>
#include <cstdio>

namespace hw::ui {

BandwidthMonitor::BandwidthMonitor(hwdb::Database& db, Config config)
    : db_(db), config_(config) {
  const std::string query =
      "SELECT device, app, sum(bytes) FROM Flows [RANGE " +
      std::to_string(config_.window_secs) + " SECONDS] GROUP BY device, app";
  query_ = hwdb::parse_query(query).take();
  auto sub = db_.subscribe(query, hwdb::SubscriptionMode::Periodic,
                           config_.refresh,
                           [this](hwdb::SubscriptionId, const hwdb::ResultSet& rs) {
                             apply(rs);
                           });
  if (sub) sub_ = sub.value();
}

BandwidthMonitor::~BandwidthMonitor() {
  if (sub_ != 0) db_.unsubscribe(sub_);
}

void BandwidthMonitor::set_label(const std::string& mac, std::string label) {
  labels_[mac] = std::move(label);
}

void BandwidthMonitor::refresh() {
  auto rs = db_.query(query_);
  if (rs) apply(rs.value());
}

void BandwidthMonitor::apply(const hwdb::ResultSet& rs) {
  ++updates_;
  std::map<std::string, DeviceBandwidth> by_device;
  const double window = static_cast<double>(config_.window_secs);

  for (const auto& row : rs.rows) {
    if (row.size() < 3) continue;
    const std::string device = row[0].to_string();
    const std::string app = row[1].to_string();
    const double rate = row[2].as_real() / window;

    auto& entry = by_device[device];
    entry.device = device;
    auto it = labels_.find(device);
    entry.label = it == labels_.end() ? device : it->second;
    entry.total_bytes_per_sec += rate;
    entry.protocols.push_back(ProtocolUsage{app, rate});
  }

  devices_.clear();
  for (auto& [_, entry] : by_device) {
    std::sort(entry.protocols.begin(), entry.protocols.end(),
              [](const ProtocolUsage& a, const ProtocolUsage& b) {
                return a.bytes_per_sec > b.bytes_per_sec;
              });
    devices_.push_back(std::move(entry));
  }
  std::sort(devices_.begin(), devices_.end(),
            [](const DeviceBandwidth& a, const DeviceBandwidth& b) {
              return a.total_bytes_per_sec > b.total_bytes_per_sec;
            });
}

std::vector<ProtocolUsage> BandwidthMonitor::device_breakdown(
    const std::string& mac) const {
  for (const auto& d : devices_) {
    if (d.device == mac) return d.protocols;
  }
  return {};
}

double BandwidthMonitor::total_bytes_per_sec() const {
  double total = 0;
  for (const auto& d : devices_) total += d.total_bytes_per_sec;
  return total;
}

std::string BandwidthMonitor::render() const {
  std::string out = "=== per-device bandwidth (last " +
                    std::to_string(config_.window_secs) + "s) ===\n";
  char line[160];
  for (const auto& d : devices_) {
    std::snprintf(line, sizeof line, "%-24s %10.1f KB/s\n", d.label.c_str(),
                  d.total_bytes_per_sec / 1024.0);
    out += line;
    for (const auto& p : d.protocols) {
      std::snprintf(line, sizeof line, "    %-12s %10.1f KB/s\n", p.app.c_str(),
                    p.bytes_per_sec / 1024.0);
      out += line;
    }
  }
  return out;
}

}  // namespace hw::ui
