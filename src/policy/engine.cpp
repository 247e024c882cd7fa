#include "policy/engine.hpp"

namespace hw::policy {

PolicyEngine::PolicyEngine(std::function<Timestamp()> now_fn)
    : now_fn_(std::move(now_fn)) {
  usb_.on_insert([this](UsbMonitor::SlotId slot, const ParsedKey& key) {
    // Policies carried by the key are installed for its insertion lifetime.
    std::vector<std::string> ids;
    for (const auto& doc : key.policies) {
      ids.push_back(doc.id);
      installed_[doc.id] = doc;
    }
    key_policies_[slot] = std::move(ids);
    notify();
  });
  usb_.on_remove([this](UsbMonitor::SlotId slot, const ParsedKey&) {
    auto it = key_policies_.find(slot);
    if (it != key_policies_.end()) {
      for (const auto& id : it->second) installed_.erase(id);
      key_policies_.erase(it);
    }
    notify();
  });
}

void PolicyEngine::install(PolicyDocument doc) {
  installed_[doc.id] = std::move(doc);
  notify();
}

bool PolicyEngine::uninstall(const std::string& id) {
  const bool erased = installed_.erase(id) > 0;
  if (erased) notify();
  return erased;
}

std::vector<const PolicyDocument*> PolicyEngine::policies() const {
  std::vector<const PolicyDocument*> out;
  out.reserve(installed_.size());
  for (const auto& [_, doc] : installed_) out.push_back(&doc);
  return out;
}

void PolicyEngine::set_tags(std::uint64_t dpid, MacAddress mac,
                            std::vector<std::string> tags) {
  tags_[{dpid, mac}] = std::move(tags);
  notify();
}

const std::vector<std::string>& PolicyEngine::tags_of(std::uint64_t dpid,
                                                      MacAddress mac) const {
  static const std::vector<std::string> kNone;
  auto it = tags_.find({dpid, mac});
  return it == tags_.end() ? kNone : it->second;
}

EvalContext PolicyEngine::eval_context() const {
  EvalContext ctx;
  ctx.now = now_fn_();
  ctx.epoch_weekday = epoch_weekday_;
  ctx.inserted_tokens = usb_.inserted_tokens();
  return ctx;
}

DeviceRestriction PolicyEngine::restriction_for(std::uint64_t dpid,
                                                MacAddress mac) const {
  DeviceRestriction r;
  // Nothing installed restricts anyone: skip rendering the address.
  if (installed_.empty()) return r;
  const std::string text = mac.to_string();  // lower-case hex
  const std::vector<std::string>& tags = tags_of(dpid, mac);
  const EvalContext ctx = eval_context();
  for (const auto& [_, doc] : installed_) fold_policy(doc, text, tags, ctx, r);
  return r;
}

namespace {

constexpr std::uint32_t kPolicyTag = snapshot::tag("PLCY");

void put_string_list(ByteWriter& w, const std::vector<std::string>& list) {
  w.u32(static_cast<std::uint32_t>(list.size()));
  for (const std::string& s : list) snapshot::put_string(w, s);
}

Result<std::vector<std::string>> get_string_list(ByteReader& r) {
  auto count = r.u32();
  if (!count) return count.error();
  std::vector<std::string> out;
  out.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto s = snapshot::get_string(r);
    if (!s) return s.error();
    out.push_back(std::move(s).take());
  }
  return out;
}

}  // namespace

void PolicyEngine::save(snapshot::Writer& w) const {
  ByteWriter& c = w.begin_chunk(kPolicyTag);
  c.u32(static_cast<std::uint32_t>(epoch_weekday_));
  c.u32(static_cast<std::uint32_t>(installed_.size()));
  for (const auto& [id, doc] : installed_) {
    snapshot::put_string(c, id);
    snapshot::put_string(c, doc.to_json().dump());
  }
  c.u32(static_cast<std::uint32_t>(key_policies_.size()));
  for (const auto& [slot, ids] : key_policies_) {
    c.u32(slot);
    put_string_list(c, ids);
  }
  c.u32(static_cast<std::uint32_t>(tags_.size()));
  for (const auto& [key, tags] : tags_) {
    c.u64(key.first);
    snapshot::put_mac(c, key.second);
    put_string_list(c, tags);
  }
  w.end_chunk();
}

Status PolicyEngine::restore(const snapshot::Reader& r) {
  const Bytes* chunk = r.find(kPolicyTag);
  if (chunk == nullptr) return Status::success();
  ByteReader br(*chunk);
  auto weekday = br.u32();
  auto ndocs = br.u32();
  if (!weekday || !ndocs) return make_error("policy snapshot: truncated header");
  std::map<std::string, PolicyDocument> installed;
  for (std::uint32_t i = 0; i < ndocs.value(); ++i) {
    auto id = snapshot::get_string(br);
    auto text = snapshot::get_string(br);
    if (!id || !text) return make_error("policy snapshot: truncated document");
    auto json = Json::parse(text.value());
    if (!json) return json.error();
    auto doc = PolicyDocument::from_json(json.value());
    if (!doc) return doc.error();
    installed.emplace(std::move(id).take(), std::move(doc).take());
  }
  auto nslots = br.u32();
  if (!nslots) return nslots.error();
  std::map<UsbMonitor::SlotId, std::vector<std::string>> key_policies;
  for (std::uint32_t i = 0; i < nslots.value(); ++i) {
    auto slot = br.u32();
    if (!slot) return slot.error();
    auto ids = get_string_list(br);
    if (!ids) return ids.error();
    key_policies.emplace(slot.value(), std::move(ids).take());
  }
  auto ntags = br.u32();
  if (!ntags) return ntags.error();
  std::map<std::pair<std::uint64_t, MacAddress>, std::vector<std::string>> tags;
  for (std::uint32_t i = 0; i < ntags.value(); ++i) {
    auto dpid = br.u64();
    auto mac = snapshot::get_mac(br);
    if (!dpid || !mac) return make_error("policy snapshot: truncated tags");
    auto list = get_string_list(br);
    if (!list) return list.error();
    tags.emplace(std::pair{dpid.value(), mac.value()}, std::move(list).take());
  }
  epoch_weekday_ = static_cast<int>(weekday.value());
  installed_ = std::move(installed);
  key_policies_ = std::move(key_policies);
  tags_ = std::move(tags);
  return Status::success();
}

}  // namespace hw::policy
