// The control API: HTTP codec round-trips and every REST route, including
// the udev USB hooks and the hwdb query passthrough.
#include "router_fixture.hpp"
#include "ui/policy_editor.hpp"

namespace hw::homework {
namespace {

using testing::RouterFixture;

// ---------------------------------------------------------------------------
// HTTP codec

TEST(Http, RequestParse) {
  auto req = HttpRequest::parse(
      "POST /api/devices/aa:bb/permit?force=1&x=a%20b HTTP/1.1\r\n"
      "Host: router\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "body");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().method, "POST");
  EXPECT_EQ(req.value().path, "/api/devices/aa:bb/permit");
  EXPECT_EQ(req.value().query.at("force"), "1");
  EXPECT_EQ(req.value().query.at("x"), "a b");
  EXPECT_EQ(req.value().headers.at("host"), "router");
  EXPECT_EQ(req.value().body, "body");
}

TEST(Http, RequestParseErrors) {
  EXPECT_FALSE(HttpRequest::parse("GET /\r\n\r\n").ok());       // bad line
  EXPECT_FALSE(HttpRequest::parse("GET / HTTP/1.1").ok());      // no blank line
  EXPECT_FALSE(HttpRequest::parse("GET x HTTP/1.1\r\n\r\n").ok());
  EXPECT_FALSE(HttpRequest::parse("GET / SPDY/3\r\n\r\n").ok());
  EXPECT_FALSE(HttpRequest::parse(
                   "GET / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort")
                   .ok());
}

TEST(Http, RequestSerializeRoundTrip) {
  HttpRequest req;
  req.method = "PUT";
  req.path = "/api/x";
  req.body = "{\"a\":1}";
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, "PUT");
  EXPECT_EQ(parsed.value().body, req.body);
}

TEST(Http, ResponseSerializeParse) {
  auto resp = HttpResponse::json(Json(JsonObject{{"ok", Json(true)}}), 201);
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 201);
  EXPECT_EQ(parsed.value().headers.at("content-type"), "application/json");
  EXPECT_TRUE(parsed.value().json_body().value()["ok"].as_bool());
}

TEST(Http, RouterMatchingAndParams) {
  HttpRouter router;
  std::string got_mac;
  router.add("GET", "/api/devices/:mac",
             [&](const HttpRequest&, const HttpRouter::Params& p) {
               got_mac = p.at("mac");
               return HttpResponse::text("ok");
             });
  HttpRequest req;
  req.path = "/api/devices/aa:bb:cc:dd:ee:ff";
  EXPECT_EQ(router.handle(req).status, 200);
  EXPECT_EQ(got_mac, "aa:bb:cc:dd:ee:ff");

  req.path = "/api/devices";  // wrong arity
  EXPECT_EQ(router.handle(req).status, 404);
  req.path = "/api/devices/aa:bb:cc:dd:ee:ff";
  req.method = "DELETE";  // path exists, method doesn't
  EXPECT_EQ(router.handle(req).status, 405);
}

// ---------------------------------------------------------------------------
// REST routes

struct ApiFixture : RouterFixture {
  HttpResponse call(const std::string& method, const std::string& path,
                    const std::string& body = {}) {
    HttpRequest req;
    req.method = method;
    req.path = path;
    req.body = body;
    return router.control_api().handle(req);
  }
};

TEST_F(ApiFixture, StatusReportsInventory) {
  auto resp = call("GET", "/api/status");
  ASSERT_EQ(resp.status, 200);
  auto j = resp.json_body().value();
  EXPECT_EQ(j["devices"].as_int(), 0);
  // Flows, Links, Leases plus the router's own Metrics table.
  EXPECT_EQ(j["hwdb_tables"].as_array().size(), 4u);
}

TEST_F(ApiFixture, DeviceListAndDetail) {
  sim::Host& host = make_device("laptop");
  host.start_dhcp();
  loop.run_for(2 * kSecond);

  auto list = call("GET", "/api/devices");
  ASSERT_EQ(list.status, 200);
  auto devices = list.json_body().value().as_array();
  ASSERT_EQ(devices.size(), 1u);
  EXPECT_EQ(devices[0]["state"].as_string(), "pending");
  EXPECT_EQ(devices[0]["hostname"].as_string(), "laptop");

  auto detail = call("GET", "/api/devices/" + host.mac().to_string());
  ASSERT_EQ(detail.status, 200);
  EXPECT_TRUE(detail.json_body().value()["lease"].is_null());

  EXPECT_EQ(call("GET", "/api/devices/02:99:99:99:99:99").status, 404);
  EXPECT_EQ(call("GET", "/api/devices/notamac").status, 400);
}

TEST_F(ApiFixture, PermitFlowEndToEnd) {
  sim::Host& host = make_device("laptop");
  host.start_dhcp();
  loop.run_for(2 * kSecond);
  ASSERT_FALSE(host.ip().has_value());

  auto resp = call("POST", "/api/devices/" + host.mac().to_string() + "/permit");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.json_body().value()["state"].as_string(), "permitted");
  loop.run_for(5 * kSecond);
  EXPECT_TRUE(host.ip().has_value());

  auto leases = call("GET", "/api/leases");
  auto arr = leases.json_body().value().as_array();
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0]["ip"].as_string(), host.ip()->to_string());
}

TEST_F(ApiFixture, DenyEndpoint) {
  sim::Host& host = make_device("banned");
  auto resp = call("POST", "/api/devices/" + host.mac().to_string() + "/deny");
  EXPECT_EQ(resp.status, 200);
  host.start_dhcp();
  loop.run_for(2 * kSecond);
  EXPECT_FALSE(host.ip().has_value());
  EXPECT_EQ(router.control_api().stats().denies.value(), 1u);
}

TEST_F(ApiFixture, MetadataUpdatesNameAndTags) {
  sim::Host& host = admitted_device("kid-tablet");
  auto resp = call("PUT", "/api/devices/" + host.mac().to_string() + "/metadata",
                   R"({"name": "Kid's tablet", "tags": ["kids"]})");
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.json_body().value()["name"].as_string(), "Kid's tablet");
  EXPECT_EQ(router.policy().tags_of(host.mac().to_string()),
            (std::vector<std::string>{"kids"}));
  EXPECT_EQ(
      call("PUT", "/api/devices/" + host.mac().to_string() + "/metadata", "{")
          .status,
      400);
}

TEST_F(ApiFixture, PolicyCrud) {
  const std::string policy = R"({
    "id": "kids", "who": {"tags": ["kids"]},
    "sites": {"kind": "allow_only", "domains": ["*.facebook.com"]}
  })";
  EXPECT_EQ(call("POST", "/api/policies", policy).status, 201);
  auto list = call("GET", "/api/policies");
  EXPECT_EQ(list.json_body().value().as_array().size(), 1u);
  EXPECT_EQ(call("DELETE", "/api/policies/kids").status, 204);
  EXPECT_EQ(call("DELETE", "/api/policies/kids").status, 404);
  EXPECT_EQ(call("POST", "/api/policies", "{\"bad\": 1}").status, 400);
}

TEST_F(ApiFixture, UsbHooksInsertAndRemove) {
  // Build a key image and post it the way the udev hook would.
  const auto image = ui::PolicyEditor::make_unlock_key("parent-key");
  Json files(JsonObject{});
  files.set("homework/token", "parent-key\n");
  Json body(JsonObject{});
  body.set("files", std::move(files));

  auto resp = call("POST", "/api/usb/insert", body.dump());
  ASSERT_EQ(resp.status, 201);
  const auto handle = resp.json_body().value()["handle"].as_int();
  EXPECT_EQ(router.policy().usb().inserted_count(), 1u);

  EXPECT_EQ(call("POST", "/api/usb/remove/" + std::to_string(handle)).status,
            204);
  EXPECT_EQ(router.policy().usb().inserted_count(), 0u);
  EXPECT_EQ(call("POST", "/api/usb/remove/" + std::to_string(handle)).status,
            404);

  // Not a policy key → 400.
  EXPECT_EQ(call("POST", "/api/usb/insert", R"({"files": {}})").status, 400);
}

TEST_F(ApiFixture, InterrogateAggregatesMeasurementPlane) {
  sim::Host& host = make_device("kid-tablet");
  permit(host);
  ASSERT_TRUE(bind(host).has_value());
  // Put the device somewhere wireless and give it some traffic + a name.
  router.wireless().place_station(host.mac(), sim::Position{7, 7});
  std::optional<Ipv4Address> dst;
  host.resolve("www.example.com", [&](Result<Ipv4Address> r, const std::string&) {
    if (r.ok()) dst = r.value();
  });
  loop.run_for(2 * kSecond);
  ASSERT_TRUE(dst.has_value());
  for (int i = 0; i < 10; ++i) {
    host.send_tcp(*dst, 45000, 80, net::TcpFlags::kAck, 400);
    loop.run_for(300 * kMillisecond);
  }
  loop.run_for(2 * kSecond);

  auto resp =
      call("GET", "/api/devices/" + host.mac().to_string() + "/interrogate");
  ASSERT_EQ(resp.status, 200);
  const auto j = resp.json_body().value();
  // Traffic summary is present and classified.
  bool saw_web = false;
  for (const auto& entry : j["traffic"].as_array()) {
    if (entry["app"].as_string() == "web") {
      saw_web = true;
      EXPECT_GT(entry["bytes"].as_int(), 0);
    }
  }
  EXPECT_TRUE(saw_web);
  // The resolved-names list includes what the DNS proxy relayed.
  bool saw_name = false;
  for (const auto& n : j["resolved_names"].as_array()) {
    if (n.as_string() == "www.example.com") saw_name = true;
  }
  EXPECT_TRUE(saw_name);
  // Wireless link details present for a placed station.
  ASSERT_TRUE(j["wireless"].is_object());
  EXPECT_LT(j["wireless"]["rssi_dbm"].as_number(), 0.0);

  EXPECT_EQ(call("GET", "/api/devices/02:99:99:99:99:99/interrogate").status,
            404);
}

TEST_F(ApiFixture, QueryPassthrough) {
  sim::Host& host = admitted_device("laptop");
  (void)host;
  HttpRequest req;
  req.method = "GET";
  req.path = "/api/query";
  req.query["q"] = "SELECT mac, event FROM Leases";
  auto resp = router.control_api().handle(req);
  ASSERT_EQ(resp.status, 200);
  auto j = resp.json_body().value();
  EXPECT_EQ(j["columns"].as_array().size(), 2u);
  EXPECT_GE(j["rows"].as_array().size(), 1u);

  req.query["q"] = "garbage";
  EXPECT_EQ(router.control_api().handle(req).status, 400);
  req.query.clear();
  EXPECT_EQ(router.control_api().handle(req).status, 400);
}

TEST_F(ApiFixture, RawHttpRoundTrip) {
  const std::string raw =
      "GET /api/status HTTP/1.1\r\nhost: router\r\n\r\n";
  const std::string response_text = router.control_api().handle_raw(raw);
  auto resp = HttpResponse::parse(response_text);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(router.control_api().handle_raw("junk").substr(0, 12),
            "HTTP/1.1 400");
}

}  // namespace
}  // namespace hw::homework
