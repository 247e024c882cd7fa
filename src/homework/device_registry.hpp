// Shared device state: every device ever seen on the home network, its
// admission state (the pending/permitted/denied categories of the Figure 3
// control interface), user-supplied metadata, and its current lease if any.
// The DHCP server, DNS proxy, forwarding module and control API all consult
// and update this registry.
//
// Records are keyed by (datapath id, MAC): under a shared controller one
// registry serves many homes, and the same MAC in two homes is two distinct
// devices with independent admission state and leases. Every call names
// the device by both.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/snapshottable.hpp"
#include "util/addr.hpp"
#include "util/types.hpp"

namespace hw::homework {

/// Admission state driven by the Figure 3 drag-to-category interaction.
enum class DeviceState {
  Pending,    // detected, awaiting a decision
  Permitted,  // may obtain a lease and use the network
  Denied,     // DHCP NAKs, traffic dropped
};

const char* to_string(DeviceState s);

struct Lease {
  Ipv4Address ip;
  Timestamp granted_at = 0;
  Timestamp expires_at = 0;
  std::string hostname;
};

struct DeviceRecord {
  std::uint64_t dpid = 0;  // home datapath the device lives behind
  MacAddress mac;
  DeviceState state = DeviceState::Pending;
  std::string name;      // user-supplied metadata ("Tom's Mac Air")
  std::string hostname;  // self-reported via DHCP option 12
  std::optional<Lease> lease;
  /// Switch port the device was last seen on (learned from packet-ins).
  std::optional<std::uint16_t> port;
  Timestamp first_seen = 0;
  Timestamp last_seen = 0;
  std::uint64_t dhcp_requests = 0;
};

/// Registry change events, also exported to hwdb's Leases table.
enum class RegistryEvent {
  Discovered,     // first DHCP message from a new MAC
  StateChanged,   // pending/permitted/denied transition
  LeaseGranted,
  LeaseRenewed,
  LeaseReleased,
  LeaseExpired,
  MetadataChanged,
};

const char* to_string(RegistryEvent e);

class DeviceRegistry final : public snapshot::Snapshottable {
 public:
  using Listener =
      std::function<void(RegistryEvent, const DeviceRecord&)>;

  /// Default admission for never-seen devices (the situated display's
  /// deployment used Pending so users decide; PermitAll matches a stock
  /// home router).
  enum class AdmissionDefault { Pending, PermitAll };

  explicit DeviceRegistry(AdmissionDefault def = AdmissionDefault::Pending)
      : default_(def) {}

  /// Notes a DHCP sighting of `mac` behind `dpid`, creating the record if
  /// new. Returns the record (never null).
  DeviceRecord* touch(std::uint64_t dpid, MacAddress mac, Timestamp now,
                      const std::string& hostname);

  [[nodiscard]] const DeviceRecord* find(std::uint64_t dpid,
                                         MacAddress mac) const;
  DeviceRecord* find(std::uint64_t dpid, MacAddress mac);

  /// The device of home `dpid` holding lease `ip`, or nullptr. Looks only
  /// at that home's records: O(log N + devices in the home).
  [[nodiscard]] const DeviceRecord* find_by_ip(std::uint64_t dpid,
                                               Ipv4Address ip) const;

  [[nodiscard]] std::vector<const DeviceRecord*> all() const;
  [[nodiscard]] std::vector<const DeviceRecord*> all(std::uint64_t dpid) const;
  [[nodiscard]] std::size_t size() const { return devices_.size(); }

  /// Admission decisions (control API / Figure 3 board).
  bool set_state(std::uint64_t dpid, MacAddress mac, DeviceState state,
                 Timestamp now);
  bool set_name(std::uint64_t dpid, MacAddress mac, std::string name,
                Timestamp now);

  /// Lease lifecycle (DHCP server).
  void record_lease(std::uint64_t dpid, MacAddress mac, Lease lease,
                    bool renewal, Timestamp now);
  void clear_lease(std::uint64_t dpid, MacAddress mac, bool expired,
                   Timestamp now);

  /// Notes the switch port a packet from `mac` arrived on (no event).
  void note_location(std::uint64_t dpid, MacAddress mac, std::uint16_t port);

  void add_listener(Listener listener) { listeners_.push_back(std::move(listener)); }

  [[nodiscard]] AdmissionDefault admission_default() const { return default_; }
  void set_admission_default(AdmissionDefault def) { default_ = def; }

  // -- Snapshottable ('DREG' chunk, v3: per-record dpid, no default home) -----
  // Captures every device record, including admission state, metadata, lease
  // and learned port. Restore replaces the record map directly — listeners
  // stay registered but no Registry events fire.
  void save(snapshot::Writer& w) const override;
  Status restore(const snapshot::Reader& r) override;

 private:
  using Key = std::pair<std::uint64_t, MacAddress>;

  void emit(RegistryEvent e, const DeviceRecord& rec);

  AdmissionDefault default_;
  std::map<Key, DeviceRecord> devices_;
  std::vector<Listener> listeners_;
};

}  // namespace hw::homework
