#include "homework/control_api.hpp"

#include "homework/dns_proxy.hpp"

#include "util/strings.hpp"

namespace hw::homework {

ControlApi::ControlApi(DeviceRegistry& registry, policy::PolicyEngine& policy,
                       hwdb::Database& db, nox::DatapathId first_dpid)
    : Component(kName), registry_(registry), policy_(policy), db_(db),
      first_dpid_(first_dpid) {
  setup_routes();
}

void ControlApi::install(nox::Controller& ctl) { Component::install(ctl); }

void ControlApi::bind_goal_state(reconcile::DesiredStore& store,
                                 std::function<void(nox::DatapathId)> changed) {
  desired_ = &store;
  desired_changed_ = std::move(changed);
}

HttpResponse ControlApi::handle(const HttpRequest& req) {
  metrics_.requests.inc();
  HttpResponse resp = router_.handle(req);
  if (resp.status >= 400) metrics_.errors.inc();
  return resp;
}

std::string ControlApi::handle_raw(std::string_view request_text) {
  auto req = HttpRequest::parse(request_text);
  if (!req) {
    metrics_.requests.inc();
    metrics_.errors.inc();
    return HttpResponse::bad_request(req.error().message).serialize();
  }
  return handle(req.value()).serialize();
}

nox::DatapathId ControlApi::home_of(MacAddress mac) const {
  if (registry_.find(first_dpid_, mac) != nullptr) return first_dpid_;
  // all() is ordered by (dpid, mac): the first hit is the lowest dpid.
  for (const DeviceRecord* rec : registry_.all()) {
    if (rec->mac == mac) return rec->dpid;
  }
  return first_dpid_;
}

Json ControlApi::device_json(const DeviceRecord& rec) const {
  Json j(JsonObject{});
  j.set("mac", rec.mac.to_string());
  j.set("state", to_string(rec.state));
  j.set("name", rec.name);
  j.set("hostname", rec.hostname);
  j.set("first_seen", static_cast<std::int64_t>(rec.first_seen));
  j.set("last_seen", static_cast<std::int64_t>(rec.last_seen));
  j.set("dhcp_requests", static_cast<std::int64_t>(rec.dhcp_requests));
  JsonArray tags;
  for (const auto& t : policy_.tags_of(rec.dpid, rec.mac)) tags.emplace_back(t);
  j.set("tags", Json(std::move(tags)));
  if (rec.lease) {
    Json lease(JsonObject{});
    lease.set("ip", rec.lease->ip.to_string());
    lease.set("granted_at", static_cast<std::int64_t>(rec.lease->granted_at));
    lease.set("expires_at", static_cast<std::int64_t>(rec.lease->expires_at));
    lease.set("hostname", rec.lease->hostname);
    j.set("lease", std::move(lease));
  } else {
    j.set("lease", nullptr);
  }
  return j;
}

void ControlApi::setup_routes() {
  using Params = HttpRouter::Params;

  // Parses `:mac` and resolves it to its home, once per request.
  auto device_key = [this](const Params& p)
      -> Result<std::pair<nox::DatapathId, MacAddress>> {
    auto it = p.find("mac");
    if (it == p.end()) return make_error("missing mac");
    auto mac = MacAddress::parse(it->second);
    if (!mac) return mac.error();
    return std::pair{home_of(mac.value()), mac.value()};
  };

  router_.add("GET", "/api/status", [this](const HttpRequest&, const Params&) {
    Json j(JsonObject{});
    j.set("devices", static_cast<std::int64_t>(registry_.size()));
    std::int64_t leased = 0;
    for (const auto* rec : registry_.all()) {
      if (rec->lease) ++leased;
    }
    j.set("active_leases", leased);
    j.set("policies", static_cast<std::int64_t>(policy_.policies().size()));
    j.set("usb_keys", static_cast<std::int64_t>(policy_.usb().inserted_count()));
    j.set("time", static_cast<std::int64_t>(controller().loop().now()));
    JsonArray tables;
    for (const auto& name : db_.table_names()) tables.emplace_back(name);
    j.set("hwdb_tables", Json(std::move(tables)));
    return HttpResponse::json(j);
  });

  router_.add("GET", "/api/devices", [this](const HttpRequest&, const Params&) {
    JsonArray arr;
    for (const auto* rec : registry_.all()) arr.push_back(device_json(*rec));
    return HttpResponse::json(Json(std::move(arr)));
  });

  router_.add("GET", "/api/devices/:mac",
              [this, device_key](const HttpRequest&, const Params& p) {
                auto key = device_key(p);
                if (!key) return HttpResponse::bad_request(key.error().message);
                const auto [dpid, mac] = key.value();
                const DeviceRecord* rec = registry_.find(dpid, mac);
                if (rec == nullptr) return HttpResponse::not_found();
                return HttpResponse::json(device_json(*rec));
              });

  // "Interrogate" (Figure 3): everything the measurement plane knows about
  // one device — recent traffic by application, the names it resolved, and
  // its wireless link quality — assembled from hwdb queries and the DNS
  // proxy's cache, the same sources any satellite display would use.
  router_.add(
      "GET", "/api/devices/:mac/interrogate",
      [this, device_key](const HttpRequest& req, const Params& p) {
        auto key = device_key(p);
        if (!key) return HttpResponse::bad_request(key.error().message);
        const auto [dpid, mac] = key.value();
        const DeviceRecord* rec = registry_.find(dpid, mac);
        if (rec == nullptr) return HttpResponse::not_found();

        int window = 60;
        if (auto it = req.query.find("window"); it != req.query.end()) {
          try {
            window = std::stoi(it->second);
          } catch (...) {
            return HttpResponse::bad_request("bad window");
          }
        }
        const std::string mac_text = mac.to_string();
        Json j = device_json(*rec);

        Json traffic(JsonArray{});
        auto flows = db_.query(
            "SELECT app, sum(bytes), sum(packets) FROM Flows [RANGE " +
            std::to_string(window) + " SECONDS] WHERE device = '" + mac_text +
            "' GROUP BY app");
        if (flows.ok()) {
          for (const auto& row : flows.value().rows) {
            Json entry(JsonObject{});
            entry.set("app", row[0].as_text());
            entry.set("bytes", row[1].as_int());
            entry.set("packets", row[2].as_int());
            traffic.push_back(std::move(entry));
          }
        }
        j.set("traffic", std::move(traffic));

        Json names(JsonArray{});
        if (auto* dns = controller().component_as<DnsProxy>(DnsProxy::kName)) {
          for (const auto& name : dns->names_for(dpid, mac)) {
            names.push_back(Json(name));
          }
        }
        j.set("resolved_names", std::move(names));

        auto link = db_.query(
            "SELECT mac, last(rssi), sum(retries), sum(tx) FROM Links [RANGE " +
            std::to_string(window) + " SECONDS] WHERE mac = '" + mac_text +
            "' GROUP BY mac");
        if (link.ok() && !link.value().rows.empty()) {
          Json wireless(JsonObject{});
          wireless.set("rssi_dbm", link.value().rows[0][1].as_real());
          wireless.set("retries", link.value().rows[0][2].as_int());
          wireless.set("tx", link.value().rows[0][3].as_int());
          j.set("wireless", std::move(wireless));
        } else {
          j.set("wireless", nullptr);  // wired device
        }
        return HttpResponse::json(j);
      });

  auto decide = [this, device_key](const Params& p, DeviceState state) {
    auto key = device_key(p);
    if (!key) return HttpResponse::bad_request(key.error().message);
    const auto [dpid, mac] = key.value();
    registry_.set_state(dpid, mac, state, controller().loop().now());
    if (state == DeviceState::Permitted) metrics_.permits.inc();
    if (state == DeviceState::Denied) metrics_.denies.inc();
    if (desired_ != nullptr) {
      auto& intent = desired_->state(dpid).device(mac.to_string());
      intent.admission = state == DeviceState::Permitted
                             ? reconcile::DeviceIntent::Admission::Permitted
                             : reconcile::DeviceIntent::Admission::Denied;
      if (desired_changed_) desired_changed_(dpid);
    }
    return HttpResponse::json(device_json(*registry_.find(dpid, mac)));
  };
  router_.add("POST", "/api/devices/:mac/permit",
              [decide](const HttpRequest&, const Params& p) {
                return decide(p, DeviceState::Permitted);
              });
  router_.add("POST", "/api/devices/:mac/deny",
              [decide](const HttpRequest&, const Params& p) {
                return decide(p, DeviceState::Denied);
              });

  router_.add(
      "PUT", "/api/devices/:mac/metadata",
      [this, device_key](const HttpRequest& req, const Params& p) {
        auto key = device_key(p);
        if (!key) return HttpResponse::bad_request(key.error().message);
        const auto [dpid, mac] = key.value();
        auto body = req.json();
        if (!body) return HttpResponse::bad_request(body.error().message);
        const Json& j = body.value();
        if (j.contains("name")) {
          if (!registry_.set_name(dpid, mac, j["name"].as_string(),
                                  controller().loop().now())) {
            return HttpResponse::not_found();
          }
        }
        if (j.contains("tags")) {
          std::vector<std::string> tags;
          for (const auto& t : j["tags"].as_array()) {
            if (t.is_string()) tags.push_back(t.as_string());
          }
          if (desired_ != nullptr) {
            desired_->state(dpid).device(mac.to_string()).tags = tags;
            if (desired_changed_) desired_changed_(dpid);
          }
          policy_.set_tags(dpid, mac, std::move(tags));
        }
        const DeviceRecord* rec = registry_.find(dpid, mac);
        if (rec == nullptr) return HttpResponse::not_found();
        return HttpResponse::json(device_json(*rec));
      });

  router_.add("GET", "/api/leases", [this](const HttpRequest&, const Params&) {
    JsonArray arr;
    for (const auto* rec : registry_.all()) {
      if (!rec->lease) continue;
      Json j(JsonObject{});
      j.set("mac", rec->mac.to_string());
      j.set("ip", rec->lease->ip.to_string());
      j.set("hostname", rec->lease->hostname);
      j.set("expires_at", static_cast<std::int64_t>(rec->lease->expires_at));
      arr.push_back(std::move(j));
    }
    return HttpResponse::json(Json(std::move(arr)));
  });

  router_.add("GET", "/api/policies", [this](const HttpRequest&, const Params&) {
    JsonArray arr;
    for (const auto* doc : policy_.policies()) arr.push_back(doc->to_json());
    return HttpResponse::json(Json(std::move(arr)));
  });

  router_.add("POST", "/api/policies",
              [this](const HttpRequest& req, const Params&) {
                auto body = req.json();
                if (!body) return HttpResponse::bad_request(body.error().message);
                auto doc = policy::PolicyDocument::from_json(body.value());
                if (!doc) return HttpResponse::bad_request(doc.error().message);
                policy_.install(std::move(doc).take());
                return HttpResponse::json(Json(JsonObject{}), 201);
              });

  router_.add("DELETE", "/api/policies/:id",
              [this](const HttpRequest&, const Params& p) {
                if (!policy_.uninstall(p.at("id"))) {
                  return HttpResponse::not_found();
                }
                return HttpResponse::text("", 204);
              });

  // udev hook: the platform posts the key's filesystem image as JSON
  // {"files": {"homework/token": "...", ...}}. Returns a handle used by the
  // removal hook.
  router_.add(
      "POST", "/api/usb/insert", [this](const HttpRequest& req, const Params&) {
        auto body = req.json();
        if (!body) return HttpResponse::bad_request(body.error().message);
        policy::UsbKeyImage image;
        for (const auto& [path, contents] : body.value()["files"].as_object()) {
          if (contents.is_string()) image.write_file(path, contents.as_string());
        }
        const auto slot = policy_.usb().insert(image);
        if (slot == 0) {
          return HttpResponse::bad_request("not a valid policy key");
        }
        metrics_.usb_inserts.inc();
        const std::uint32_t handle = next_usb_handle_++;
        usb_slots_[handle] = slot;
        Json j(JsonObject{});
        j.set("handle", static_cast<std::int64_t>(handle));
        return HttpResponse::json(j, 201);
      });

  router_.add("POST", "/api/usb/remove/:slot",
              [this](const HttpRequest&, const Params& p) {
                std::uint32_t handle = 0;
                try {
                  handle = static_cast<std::uint32_t>(std::stoul(p.at("slot")));
                } catch (...) {
                  return HttpResponse::bad_request("bad slot handle");
                }
                auto it = usb_slots_.find(handle);
                if (it == usb_slots_.end()) return HttpResponse::not_found();
                policy_.usb().remove(it->second);
                usb_slots_.erase(it);
                metrics_.usb_removes.inc();
                return HttpResponse::text("", 204);
              });

  router_.add("GET", "/api/query", [this](const HttpRequest& req, const Params&) {
    auto it = req.query.find("q");
    if (it == req.query.end()) {
      return HttpResponse::bad_request("missing q parameter");
    }
    auto rs = db_.query(it->second);
    if (!rs) return HttpResponse::bad_request(rs.error().message);
    Json j(JsonObject{});
    JsonArray cols;
    for (const auto& c : rs.value().columns) cols.emplace_back(c);
    j.set("columns", Json(std::move(cols)));
    JsonArray rows;
    for (const auto& row : rs.value().rows) {
      JsonArray out;
      for (const auto& v : row) {
        switch (v.type()) {
          case hwdb::ColumnType::Int:
          case hwdb::ColumnType::Ts:
            out.emplace_back(static_cast<std::int64_t>(v.as_int()));
            break;
          case hwdb::ColumnType::Real:
            out.emplace_back(v.as_real());
            break;
          case hwdb::ColumnType::Text:
            out.emplace_back(v.as_text());
            break;
        }
      }
      rows.emplace_back(std::move(out));
    }
    j.set("rows", Json(std::move(rows)));
    return HttpResponse::json(j);
  });
}

}  // namespace hw::homework
