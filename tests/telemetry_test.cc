// End-to-end telemetry tests: a live server over a real QueryService with a
// shared MetricsRegistry and a captured access log. Each wire outcome the
// protocol can produce (200, 403 budget, 429 tenant-limited, 400 bad
// request, 408 header timeout) must leave a well-formed access-log line, and
// the scrape endpoints (/metrics, /v1/trace/stats) must expose populated
// per-stage histograms after a query burst. The /v1/stats ↔ /metrics
// agreement test is the regression guard for the single-source-of-truth
// counters in QueryService.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/service_api.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "storage/catalog.h"
#include "test_catalog.h"

namespace dpstarj::net {
namespace {

std::string QueryBody(const std::string& sql, double epsilon,
                      const std::string& tenant) {
  Json body = Json::Object();
  body.Set("sql", Json::Str(sql));
  body.Set("epsilon", Json::Number(epsilon));
  body.Set("tenant", Json::Str(tenant));
  return body.Dump();
}

std::string ToyQuery(int d) {
  return Format(
      "SELECT count(*) FROM Orders, Cust, Prod WHERE Orders.ck = Cust.ck "
      "AND Orders.pk = Prod.pk AND Cust.tier <= %d AND Prod.cat = '%c'",
      d % 4 + 1, "abcd"[(d / 4) % 4]);
}

/// Collects access-log lines in memory; reads happen after traffic quiesces.
class CapturedLog {
 public:
  std::shared_ptr<obs::AccessLog> Make() {
    return std::make_shared<obs::AccessLog>([this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    });
  }
  std::vector<std::string> Lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

/// Parses an access-log line and asserts the request-level invariants every
/// line must satisfy; returns the parsed JSON for outcome-specific checks.
Json MustParseLine(const std::string& line) {
  auto json = Json::Parse(line);
  EXPECT_TRUE(json.ok()) << line;
  EXPECT_NE(json->Find("ts"), nullptr) << line;
  EXPECT_NE(json->Find("method"), nullptr) << line;
  EXPECT_NE(json->Find("path"), nullptr) << line;
  EXPECT_NE(json->Find("status"), nullptr) << line;
  EXPECT_GE(*json->GetNumber("total_us"), 0.0) << line;
  return *json;
}

/// Asserts a /v1/query line carries a trace with every stage present and
/// non-negative.
void CheckQueryLineStages(const Json& line_json, const std::string& line) {
  ASSERT_NE(line_json.Find("trace_id"), nullptr) << line;
  EXPECT_EQ(line_json.GetString("trace_id")->size(), 16u) << line;
  const Json* stages = line_json.Find("stages");
  ASSERT_NE(stages, nullptr) << line;
  for (int s = 0; s < obs::kStageCount; ++s) {
    const char* name = obs::StageName(static_cast<obs::Stage>(s));
    auto us = stages->GetNumber(name);
    ASSERT_TRUE(us.ok()) << name << " missing in " << line;
    EXPECT_GE(*us, 0.0) << name << " in " << line;
  }
}

class TelemetryTest : public ::testing::Test {
 protected:
  TelemetryTest() : catalog_(testing_fixture::MakeToyCatalog()) {}
  storage::Catalog catalog_;
};

TEST_F(TelemetryTest, AllWireOutcomesEmitTracedAccessLogLines) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  service::ServiceOptions service_options;
  service_options.num_engines = 2;
  service_options.metrics = metrics;
  service::QueryService service(&catalog_, service_options);

  CapturedLog captured;
  ServerOptions server_options;
  server_options.metrics = metrics.get();
  server_options.access_log = captured.Make();
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());
  Client client("127.0.0.1", server.port());

  // 200s: one fresh draw + replays, plus a second fresh query.
  ASSERT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"t\",\"epsilon\":1.0}")
                ->status,
            201);
  for (int i = 0; i < 4; ++i) {
    auto r = client.Post("/v1/query", QueryBody(ToyQuery(0), 0.4, "t"));
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->status, 200) << r->body;
    EXPECT_EQ(r->FindHeader("X-DPStarJ-Trace-Id").size(), 16u);
  }
  ASSERT_EQ(client.Post("/v1/query", QueryBody(ToyQuery(1), 0.4, "t"))->status,
            200);
  // 403: the third fresh draw does not fit in the remaining 0.2.
  auto exhausted = client.Post("/v1/query", QueryBody(ToyQuery(2), 0.4, "t"));
  ASSERT_TRUE(exhausted.ok());
  EXPECT_EQ(exhausted->status, 403);
  EXPECT_EQ(exhausted->FindHeader("X-DPStarJ-Trace-Id").size(), 16u);

  // 429 tenant-limited: a one-token bucket that effectively never refills.
  ASSERT_EQ(client
                .Post("/v1/tenants",
                      "{\"tenant\":\"drip\",\"epsilon\":100,"
                      "\"rate_qps\":0.001,\"burst\":1}")
                ->status,
            201);
  ASSERT_EQ(client.Post("/v1/query", QueryBody(ToyQuery(0), 0.1, "drip"))
                ->status,
            200);
  auto limited = client.Post("/v1/query", QueryBody(ToyQuery(0), 0.1, "drip"));
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->status, 429);
  EXPECT_EQ(limited->FindHeader(kTenantLimitedHeader), "1");
  EXPECT_EQ(limited->FindHeader("X-DPStarJ-Trace-Id").size(), 16u);

  // 400: an unparsable body still gets a traced response.
  auto bad = client.Post("/v1/query", "not json");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
  EXPECT_EQ(bad->FindHeader("X-DPStarJ-Trace-Id").size(), 16u);

  // Stop() joins the handler threads, so every access-log line has landed
  // before the assertions below read them.
  server.Stop();

  // Every line parses and satisfies the shared invariants; every /v1/query
  // line carries a complete stage map.
  int ok_lines = 0, forbidden_lines = 0, limited_lines = 0, bad_lines = 0;
  for (const std::string& line : captured.Lines()) {
    Json json = MustParseLine(line);
    if (*json.GetString("path") != "/v1/query") continue;
    CheckQueryLineStages(json, line);
    const int status = static_cast<int>(*json.GetNumber("status"));
    switch (status) {
      case 200: ++ok_lines; break;
      case 403: ++forbidden_lines; break;
      case 429: ++limited_lines; break;
      case 400: ++bad_lines; break;
      default: break;
    }
    if (status == 200 || status == 403 || status == 429) {
      EXPECT_NE(json.Find("tenant"), nullptr) << line;
    }
  }
  EXPECT_EQ(ok_lines, 6);
  EXPECT_EQ(forbidden_lines, 1);
  EXPECT_EQ(limited_lines, 1);
  EXPECT_EQ(bad_lines, 1);

  // A replayed answer is marked as a cache hit in its log line.
  bool saw_replay = false;
  for (const std::string& line : captured.Lines()) {
    if (line.find("\"answer_cache_hit\":true") != std::string::npos) {
      saw_replay = true;
    }
  }
  EXPECT_TRUE(saw_replay);
}

TEST_F(TelemetryTest, MetricsEndpointExposesPopulatedHistograms) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  service::ServiceOptions service_options;
  service_options.num_engines = 2;
  service_options.default_tenant_budget = 100.0;
  service_options.metrics = metrics;
  service::QueryService service(&catalog_, service_options);

  ServerOptions server_options;
  server_options.metrics = metrics.get();
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());
  Client client("127.0.0.1", server.port());

  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(
        client.Post("/v1/query", QueryBody(ToyQuery(i % 3), 0.05, "burst"))
            ->status,
        200);
  }

  auto scrape = client.Get("/metrics");
  ASSERT_TRUE(scrape.ok());
  ASSERT_EQ(scrape->status, 200);
  EXPECT_EQ(scrape->content_type, "text/plain; version=0.0.4; charset=utf-8");
  const std::string& text = scrape->body;

  // Lifecycle counters, per-outcome duration histograms, per-stage
  // histograms, per-tenant ε gauges and the HTTP layer's own counters all on
  // one page.
  EXPECT_NE(text.find("# TYPE dpstarj_queries_submitted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dpstarj_queries_submitted_total 12"), std::string::npos);
  EXPECT_NE(text.find("dpstarj_queries_completed_total 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dpstarj_query_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("dpstarj_query_duration_seconds_count{outcome=\"ok\"} 12"),
      std::string::npos);
  EXPECT_NE(text.find("dpstarj_stage_duration_seconds_bucket{stage=\"scan\""),
            std::string::npos);
  EXPECT_NE(
      text.find("dpstarj_stage_duration_seconds_count{stage=\"queue_wait\"} 12"),
      std::string::npos);
  EXPECT_NE(text.find("dpstarj_tenant_epsilon_spent{tenant=\"burst\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dpstarj_tenant_epsilon_remaining{tenant=\"burst\"}"),
            std::string::npos);
  EXPECT_NE(text.find("dpstarj_http_requests_total"), std::string::npos);
  EXPECT_NE(text.find("dpstarj_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("dpstarj_answer_cache_hit_ratio"), std::string::npos);

  // Counters never reset across scrapes: a second scrape must not regress.
  auto again = client.Get("/metrics");
  ASSERT_EQ(again->status, 200);
  EXPECT_NE(again->body.find("dpstarj_queries_completed_total 12"),
            std::string::npos);

  // /v1/trace/stats distills the same histograms into JSON aggregates.
  auto traces = client.Get("/v1/trace/stats");
  ASSERT_EQ(traces->status, 200);
  auto body = Client::ParseBody(*traces);
  ASSERT_TRUE(body.ok());
  const Json* stages = body->Find("stages");
  ASSERT_NE(stages, nullptr);
  const Json* scan = stages->Find("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_GE(*scan->GetNumber("count"), 3.0);  // one per fresh draw
  EXPECT_GE(*scan->GetNumber("p99_seconds"), *scan->GetNumber("p50_seconds"));
  const Json* query = body->Find("query");
  ASSERT_NE(query, nullptr);
  ASSERT_NE(query->Find("ok"), nullptr);
  EXPECT_DOUBLE_EQ(*query->Find("ok")->GetNumber("count"), 12.0);
  server.Stop();
}

// /v1/stats and /metrics read the same registry counters, so the wire stats
// and a scrape can never disagree at quiescence.
TEST_F(TelemetryTest, StatsAndMetricsAgree) {
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service_options.default_tenant_budget = 100.0;
  service_options.metrics = metrics;
  service::QueryService service(&catalog_, service_options);

  ServerOptions server_options;
  server_options.metrics = metrics.get();
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());
  Client client("127.0.0.1", server.port());

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(client.Post("/v1/query", QueryBody(ToyQuery(i), 0.01, "agree"))
                  ->status,
              200);
  }

  auto stats = Client::ParseBody(*client.Get("/v1/stats"));
  ASSERT_TRUE(stats.ok());
  service::ServiceStats in_process = service.Stats();
  EXPECT_DOUBLE_EQ(*stats->GetNumber("submitted"),
                   static_cast<double>(in_process.submitted));
  EXPECT_DOUBLE_EQ(*stats->GetNumber("completed"),
                   static_cast<double>(in_process.completed));
  const obs::Counter* submitted =
      metrics->FindCounter("dpstarj_queries_submitted_total");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->Value(), in_process.submitted);
  EXPECT_EQ(in_process.submitted, 5u);
  EXPECT_EQ(in_process.completed, 5u);

  // So do the plan cache's column counters: the five queries share one
  // signature, whose compile built one join column per dimension.
  const Json* plans = stats->Find("plan_cache");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(in_process.plan_cache.column_builds, 2u);
  EXPECT_DOUBLE_EQ(*plans->GetNumber("column_builds"), 2.0);
  EXPECT_DOUBLE_EQ(*plans->GetNumber("column_reuses"),
                   static_cast<double>(in_process.plan_cache.column_reuses));
  ASSERT_EQ(client.Get("/metrics")->status, 200);
  const obs::Gauge* builds = metrics->FindGauge("dpstarj_plan_column_builds");
  const obs::Gauge* reuses = metrics->FindGauge("dpstarj_plan_column_reuses");
  ASSERT_TRUE(builds != nullptr && reuses != nullptr);
  EXPECT_EQ(builds->Value(), 2.0);
  EXPECT_EQ(reuses->Value(),
            static_cast<double>(in_process.plan_cache.column_reuses));

  // An ingested row extends the plan. Its compiled join columns hold no
  // slack, so each is copied once, and both surfaces count the copies.
  ASSERT_EQ(client
                .Post("/v1/ingest",
                      R"({"table": "Orders", "rows": [[1, 1, 2, 20.0]]})")
                ->status,
            200);
  ASSERT_EQ(client.Post("/v1/query", QueryBody(ToyQuery(0), 0.01, "agree"))
                ->status,
            200);
  auto after = Client::ParseBody(*client.Get("/v1/stats"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(service.Stats().plan_cache.column_copies, 2u);
  EXPECT_DOUBLE_EQ(
      *after->Find("plan_cache")->GetNumber("column_copies"), 2.0);
  ASSERT_EQ(client.Get("/metrics")->status, 200);
  const obs::Gauge* copies = metrics->FindGauge("dpstarj_plan_column_copies");
  ASSERT_NE(copies, nullptr);
  EXPECT_EQ(copies->Value(), 2.0);
  server.Stop();
}

// A connection reaped at the header deadline leaves a 408 access-log line —
// no trace (there was no request), but a valid record of the refusal.
TEST_F(TelemetryTest, HeaderTimeoutLeavesAccessLogLine) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);

  CapturedLog captured;
  ServerOptions server_options;
  server_options.header_timeout_ms = 200;
  server_options.access_log = captured.Make();
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_GT(::send(fd, "GET /slow", 9, MSG_NOSIGNAL), 0);  // never finishes

  // Wait for the reap (408 + close), bounded by the receive side going EOF.
  timeval tv{3, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char buf[1024];
  std::string got;
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(got.find("408"), std::string::npos);

  server.Stop();  // joins the event thread: the reaper's log line has landed
  bool saw_408 = false;
  for (const std::string& line : captured.Lines()) {
    Json json = MustParseLine(line);
    if (static_cast<int>(*json.GetNumber("status")) == 408) saw_408 = true;
  }
  EXPECT_TRUE(saw_408);
}

}  // namespace
}  // namespace dpstarj::net
