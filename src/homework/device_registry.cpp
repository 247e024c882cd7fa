#include "homework/device_registry.hpp"

namespace hw::homework {

const char* to_string(DeviceState s) {
  switch (s) {
    case DeviceState::Pending: return "pending";
    case DeviceState::Permitted: return "permitted";
    case DeviceState::Denied: return "denied";
  }
  return "?";
}

const char* to_string(RegistryEvent e) {
  switch (e) {
    case RegistryEvent::Discovered: return "discovered";
    case RegistryEvent::StateChanged: return "state_changed";
    case RegistryEvent::LeaseGranted: return "lease_granted";
    case RegistryEvent::LeaseRenewed: return "lease_renewed";
    case RegistryEvent::LeaseReleased: return "lease_released";
    case RegistryEvent::LeaseExpired: return "lease_expired";
    case RegistryEvent::MetadataChanged: return "metadata_changed";
  }
  return "?";
}

DeviceRecord* DeviceRegistry::touch(std::uint64_t dpid, MacAddress mac,
                                    Timestamp now,
                                    const std::string& hostname) {
  const Key key{dpid, mac};
  auto it = devices_.find(key);
  if (it == devices_.end()) {
    DeviceRecord rec;
    rec.dpid = dpid;
    rec.mac = mac;
    rec.state = default_ == AdmissionDefault::PermitAll ? DeviceState::Permitted
                                                        : DeviceState::Pending;
    rec.hostname = hostname;
    rec.first_seen = now;
    rec.last_seen = now;
    rec.dhcp_requests = 1;
    it = devices_.emplace(key, std::move(rec)).first;
    emit(RegistryEvent::Discovered, it->second);
    return &it->second;
  }
  it->second.last_seen = now;
  ++it->second.dhcp_requests;
  if (!hostname.empty()) it->second.hostname = hostname;
  return &it->second;
}

const DeviceRecord* DeviceRegistry::find(std::uint64_t dpid,
                                         MacAddress mac) const {
  auto it = devices_.find(Key{dpid, mac});
  return it == devices_.end() ? nullptr : &it->second;
}

DeviceRecord* DeviceRegistry::find(std::uint64_t dpid, MacAddress mac) {
  auto it = devices_.find(Key{dpid, mac});
  return it == devices_.end() ? nullptr : &it->second;
}

const DeviceRecord* DeviceRegistry::find(MacAddress mac) const {
  if (const DeviceRecord* rec = find(default_dpid_, mac)) return rec;
  for (const auto& [key, rec] : devices_) {
    if (key.second == mac) return &rec;
  }
  return nullptr;
}

DeviceRecord* DeviceRegistry::find(MacAddress mac) {
  if (DeviceRecord* rec = find(default_dpid_, mac)) return rec;
  for (auto& [key, rec] : devices_) {
    if (key.second == mac) return &rec;
  }
  return nullptr;
}

const DeviceRecord* DeviceRegistry::find_by_ip(std::uint64_t dpid,
                                               Ipv4Address ip) const {
  // Records are ordered by (dpid, mac): one home's devices are contiguous.
  for (auto it = devices_.lower_bound(Key{dpid, MacAddress{}});
       it != devices_.end() && it->first.first == dpid; ++it) {
    const DeviceRecord& rec = it->second;
    if (rec.lease && rec.lease->ip == ip) return &rec;
  }
  return nullptr;
}

std::vector<const DeviceRecord*> DeviceRegistry::all() const {
  std::vector<const DeviceRecord*> out;
  out.reserve(devices_.size());
  for (const auto& [_, rec] : devices_) out.push_back(&rec);
  return out;
}

std::vector<const DeviceRecord*> DeviceRegistry::all(std::uint64_t dpid) const {
  std::vector<const DeviceRecord*> out;
  for (const auto& [key, rec] : devices_) {
    if (key.first == dpid) out.push_back(&rec);
  }
  return out;
}

bool DeviceRegistry::set_state(std::uint64_t dpid, MacAddress mac,
                               DeviceState state, Timestamp now) {
  DeviceRecord* rec = find(dpid, mac);
  if (rec == nullptr) {
    // Allow pre-authorisation of devices that have not appeared yet.
    DeviceRecord fresh;
    fresh.dpid = dpid;
    fresh.mac = mac;
    fresh.state = state;
    fresh.first_seen = now;
    fresh.last_seen = now;
    auto [it, _] = devices_.emplace(Key{dpid, mac}, std::move(fresh));
    emit(RegistryEvent::StateChanged, it->second);
    return true;
  }
  if (rec->state == state) return false;
  rec->state = state;
  rec->last_seen = now;
  emit(RegistryEvent::StateChanged, *rec);
  return true;
}

bool DeviceRegistry::set_state(MacAddress mac, DeviceState state,
                               Timestamp now) {
  // Compat path: act on an existing record wherever it lives, else create
  // one under the default home.
  if (DeviceRecord* rec = find(mac)) {
    return set_state(rec->dpid, mac, state, now);
  }
  return set_state(default_dpid_, mac, state, now);
}

bool DeviceRegistry::set_name(std::uint64_t dpid, MacAddress mac,
                              std::string name, Timestamp now) {
  DeviceRecord* rec = find(dpid, mac);
  if (rec == nullptr) return false;
  rec->name = std::move(name);
  rec->last_seen = now;
  emit(RegistryEvent::MetadataChanged, *rec);
  return true;
}

bool DeviceRegistry::set_name(MacAddress mac, std::string name, Timestamp now) {
  DeviceRecord* rec = find(mac);
  if (rec == nullptr) return false;
  return set_name(rec->dpid, mac, std::move(name), now);
}

void DeviceRegistry::record_lease(std::uint64_t dpid, MacAddress mac,
                                  Lease lease, bool renewal, Timestamp now) {
  DeviceRecord* rec = find(dpid, mac);
  if (rec == nullptr) rec = touch(dpid, mac, now, lease.hostname);
  rec->lease = std::move(lease);
  rec->last_seen = now;
  emit(renewal ? RegistryEvent::LeaseRenewed : RegistryEvent::LeaseGranted, *rec);
}

void DeviceRegistry::clear_lease(std::uint64_t dpid, MacAddress mac,
                                 bool expired, Timestamp now) {
  DeviceRecord* rec = find(dpid, mac);
  if (rec == nullptr || !rec->lease) return;
  rec->lease.reset();
  rec->last_seen = now;
  emit(expired ? RegistryEvent::LeaseExpired : RegistryEvent::LeaseReleased, *rec);
}

void DeviceRegistry::note_location(std::uint64_t dpid, MacAddress mac,
                                   std::uint16_t port) {
  DeviceRecord* rec = find(dpid, mac);
  if (rec != nullptr) rec->port = port;
}

void DeviceRegistry::emit(RegistryEvent e, const DeviceRecord& rec) {
  for (const auto& listener : listeners_) listener(e, rec);
}

namespace {
constexpr std::uint32_t kRegistryTag = snapshot::tag("DREG");
constexpr std::uint8_t kRegistryVersion = 2;  // v2: per-record dpid
}  // namespace

void DeviceRegistry::save(snapshot::Writer& w) const {
  ByteWriter& c = w.begin_chunk(kRegistryTag);
  c.u8(kRegistryVersion);
  c.u8(static_cast<std::uint8_t>(default_));
  c.u64(default_dpid_);
  c.u32(static_cast<std::uint32_t>(devices_.size()));
  for (const auto& [key, rec] : devices_) {
    c.u64(key.first);
    snapshot::put_mac(c, rec.mac);
    c.u8(static_cast<std::uint8_t>(rec.state));
    snapshot::put_string(c, rec.name);
    snapshot::put_string(c, rec.hostname);
    c.u8(rec.lease.has_value() ? 1 : 0);
    if (rec.lease) {
      snapshot::put_ip(c, rec.lease->ip);
      c.u64(rec.lease->granted_at);
      c.u64(rec.lease->expires_at);
      snapshot::put_string(c, rec.lease->hostname);
    }
    c.u8(rec.port.has_value() ? 1 : 0);
    if (rec.port) c.u16(*rec.port);
    c.u64(rec.first_seen);
    c.u64(rec.last_seen);
    c.u64(rec.dhcp_requests);
  }
  w.end_chunk();
}

Status DeviceRegistry::restore(const snapshot::Reader& r) {
  const Bytes* chunk = r.find(kRegistryTag);
  if (chunk == nullptr) return Status::success();
  ByteReader br(*chunk);
  auto version = br.u8();
  if (!version) return make_error("registry snapshot: truncated header");
  if (version.value() != kRegistryVersion) {
    return make_error("registry snapshot: unsupported version");
  }
  auto def = br.u8();
  auto default_dpid = br.u64();
  auto count = br.u32();
  if (!def || !default_dpid || !count) {
    return make_error("registry snapshot: truncated header");
  }
  std::map<Key, DeviceRecord> devices;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    DeviceRecord rec;
    auto dpid = br.u64();
    auto mac = snapshot::get_mac(br);
    auto state = br.u8();
    auto name = snapshot::get_string(br);
    auto hostname = snapshot::get_string(br);
    auto has_lease = br.u8();
    if (!dpid || !mac || !state || !name || !hostname || !has_lease) {
      return make_error("registry snapshot: truncated record");
    }
    rec.dpid = dpid.value();
    rec.mac = mac.value();
    rec.state = static_cast<DeviceState>(state.value());
    rec.name = std::move(name).take();
    rec.hostname = std::move(hostname).take();
    if (has_lease.value() != 0) {
      Lease lease;
      auto ip = snapshot::get_ip(br);
      auto granted = br.u64();
      auto expires = br.u64();
      auto lease_host = snapshot::get_string(br);
      if (!ip || !granted || !expires || !lease_host) {
        return make_error("registry snapshot: truncated lease");
      }
      lease.ip = ip.value();
      lease.granted_at = granted.value();
      lease.expires_at = expires.value();
      lease.hostname = std::move(lease_host).take();
      rec.lease = std::move(lease);
    }
    auto has_port = br.u8();
    if (!has_port) return has_port.error();
    if (has_port.value() != 0) {
      auto port = br.u16();
      if (!port) return port.error();
      rec.port = port.value();
    }
    auto first_seen = br.u64();
    auto last_seen = br.u64();
    auto dhcp_requests = br.u64();
    if (!first_seen || !last_seen || !dhcp_requests) {
      return make_error("registry snapshot: truncated timestamps");
    }
    rec.first_seen = first_seen.value();
    rec.last_seen = last_seen.value();
    rec.dhcp_requests = dhcp_requests.value();
    devices.emplace(Key{rec.dpid, rec.mac}, std::move(rec));
  }
  default_ = static_cast<AdmissionDefault>(def.value());
  default_dpid_ = default_dpid.value();
  devices_ = std::move(devices);
  return Status::success();
}

}  // namespace hw::homework
