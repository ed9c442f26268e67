// End-to-end tests of the HTTP front door: a live epoll server over a real
// QueryService, exercised by concurrent net::Client threads.
//
// The acceptance-criterion test runs 8 client connections × 125 queries
// (1000 total) and then checks the per-tenant ε accounting over the wire
// against the in-process ledger — exactly. The overload test saturates a
// 1-engine/1-slot service and checks that the front door sheds load with
// 429 + Retry-After while /healthz stays responsive (the accept loop and
// spare handler threads never park on the pool's backpressure).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/service_api.h"
#include "query/binder.h"
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

// The d-th distinct toy-catalog query (distinct canonical keys for d < 16).
std::string DistinctToyQuery(int d) {
  return Format(
      "SELECT count(*) FROM Orders, Cust, Prod WHERE Orders.ck = Cust.ck "
      "AND Orders.pk = Prod.pk AND Cust.tier <= %d AND Prod.cat = '%c'",
      d % 4 + 1, "abcd"[(d / 4) % 4]);
}

// A larger star instance whose queries take real milliseconds — enough work
// for the overload test to actually fill a 1-slot queue.
storage::Catalog MakeHeavyCatalog(int64_t fact_rows) {
  using storage::AttributeDomain;
  using storage::Field;
  using storage::Value;
  using storage::ValueType;

  constexpr int64_t kDimRows = 500;
  storage::Schema dim_schema({Field("dk", ValueType::kInt64),
                              Field("bucket", ValueType::kInt64,
                                    AttributeDomain::IntRange(1, kDimRows))});
  auto dim = *storage::Table::Create("Dim", dim_schema, "dk");
  for (int64_t i = 0; i < kDimRows; ++i) {
    EXPECT_TRUE(dim->AppendRow({Value(i + 1), Value(i + 1)}).ok());
  }
  storage::Schema fact_schema(
      {Field("dk", ValueType::kInt64), Field("amount", ValueType::kDouble)});
  auto fact = *storage::Table::Create("Fact", fact_schema);
  for (int64_t i = 0; i < fact_rows; ++i) {
    EXPECT_TRUE(
        fact->AppendRow({Value(i % kDimRows + 1), Value(double(i % 31))}).ok());
  }
  storage::Catalog catalog;
  EXPECT_TRUE(catalog.AddTable(dim).ok());
  EXPECT_TRUE(catalog.AddTable(fact).ok());
  EXPECT_TRUE(catalog.AddForeignKey({"Fact", "dk", "Dim", "dk"}).ok());
  return catalog;
}

// A raw blocking TCP connection for the deadline tests: net::Client always
// sends complete requests, which is exactly what a slow-loris peer does not.
class RawConn {
 public:
  RawConn(const std::string& host, uint16_t port, int recv_timeout_ms = 5000) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    timeval tv{recv_timeout_ms / 1000, (recv_timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  bool Send(const std::string& bytes) {
    return fd_ >= 0 &&
           ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(bytes.size());
  }
  /// Reads until EOF (or the socket timeout); returns everything received.
  std::string DrainUntilEof() {
    std::string out;
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;  // EOF, timeout or error
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }
  /// Reads until `marker` has been seen (headers+body arrive in few reads).
  std::string ReadUntil(const std::string& marker) {
    std::string out;
    char buf[4096];
    while (out.find(marker) == std::string::npos) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

class NetServerTest : public ::testing::Test {
 protected:
  NetServerTest() : catalog_(testing_fixture::MakeToyCatalog()) {}
  storage::Catalog catalog_;
};

// The acceptance-criterion test: 8 concurrent connections, 1000 queries,
// per-tenant ε accounting over the wire matches the ledger exactly.
TEST_F(NetServerTest, EightConnectionsThousandQueriesExactAccounting) {
  constexpr int kClients = 8;
  constexpr int kPerClient = 125;
  constexpr int kDistinctPerTenant = 10;
  constexpr double kTotal = 100.0;

  service::ServiceOptions service_options;
  service_options.num_engines = 2;
  service_options.queue_capacity = 64;
  service::QueryService service(&catalog_, service_options);

  ServerOptions server_options;
  server_options.handler_threads = kClients;
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  // Every client is its own tenant with its own ε-per-query; distinct ε
  // values keep the tenants' cache keys disjoint even for identical SQL, so
  // each tenant's paid-answer count is deterministic: one per distinct query
  // (the thread submits sequentially — replays are free).
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = Format("tenant-%d", t);
      const double eps = 0.01 * (t + 1);
      Client client("127.0.0.1", server.port());
      auto reg = client.Post(
          "/v1/tenants",
          Format("{\"tenant\":\"%s\",\"epsilon\":%g}", tenant.c_str(), kTotal));
      if (!reg.ok() || reg->status != 201) {
        ++failures;
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        std::string sql = DistinctToyQuery(i % kDistinctPerTenant);
        auto r = client.Post("/v1/query", QueryBody(sql, eps, tenant));
        if (!r.ok() || r->status != 200) {
          ++failures;
          return;
        }
        auto body = Client::ParseBody(*r);
        if (!body.ok() || body->Find("scalar") == nullptr) {
          ++failures;
          return;
        }
      }
      // The wire-reported account must agree with the expected position:
      // exactly kDistinctPerTenant fresh draws were paid for.
      auto account = client.Get("/v1/tenants/" + tenant);
      if (!account.ok() || account->status != 200) {
        ++failures;
        return;
      }
      auto json = Client::ParseBody(*account);
      if (!json.ok()) {
        ++failures;
        return;
      }
      double spent = *json->GetNumber("spent");
      double remaining = *json->GetNumber("remaining");
      EXPECT_NEAR(spent, kDistinctPerTenant * eps, 1e-9) << tenant;
      EXPECT_NEAR(remaining, kTotal - kDistinctPerTenant * eps, 1e-9) << tenant;
      // ...and with the in-process ledger bit-for-bit (the JSON number round
      // trip is exact: %.17g / integral fast path).
      auto ledger = service.ledger().Account(tenant);
      ASSERT_TRUE(ledger.ok());
      EXPECT_EQ(spent, ledger->spent) << tenant;
      EXPECT_EQ(remaining, ledger->remaining) << tenant;
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(failures.load(), 0);

  service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.failed, 0u);
  // Per tenant: kDistinctPerTenant misses, the rest replays.
  EXPECT_EQ(stats.cache.misses,
            static_cast<uint64_t>(kClients * kDistinctPerTenant));
  EXPECT_EQ(stats.cache.hits,
            static_cast<uint64_t>(kClients * (kPerClient - kDistinctPerTenant)));

  ServerStats net_stats = server.GetStats();
  EXPECT_GE(net_stats.requests_handled,
            static_cast<uint64_t>(kClients * (kPerClient + 2)));
  EXPECT_EQ(net_stats.bad_requests, 0u);
  server.Stop();
}

// Saturate a 1-engine, 1-slot service: the front door must shed load with
// 429 + Retry-After, the accept loop must keep answering /healthz, and every
// shed request's admission ε must flow back (exact conservation).
TEST(NetServerOverloadTest, QueueFullYields429AndNeverBlocksAcceptLoop) {
  constexpr int kClients = 6;
  constexpr int kPerClient = 40;
  constexpr double kEps = 0.01;

  storage::Catalog catalog = MakeHeavyCatalog(60000);
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service_options.queue_capacity = 1;
  service_options.cache_capacity = 0;  // every accepted query really runs
  service_options.default_tenant_budget = 1e9;
  service::QueryService service(&catalog, service_options);

  ServerOptions server_options;
  server_options.handler_threads = kClients + 2;
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<uint64_t> ok_count{0}, shed_count{0};
  std::atomic<int> failures{0};
  std::atomic<bool> storm_over{false};

  // A probe hammering /healthz for the whole storm: if the accept loop or
  // all handler threads ever park on the pool's backpressure, this stalls
  // and the count collapses.
  std::thread probe([&] {
    Client client("127.0.0.1", server.port());
    while (!storm_over.load()) {
      auto r = client.Get("/healthz");
      if (!r.ok() || r->status != 200) {
        ++failures;
        return;
      }
    }
  });

  std::vector<std::thread> clients;
  int query_counter = 0;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t, base = query_counter] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; i < kPerClient; ++i) {
        int n = base + i;
        std::string sql = Format(
            "SELECT count(*) FROM Fact, Dim WHERE Fact.dk = Dim.dk "
            "AND Dim.bucket BETWEEN %d AND %d",
            n % 200 + 1, n % 200 + 150 + t);
        auto r = client.Post("/v1/query", QueryBody(sql, kEps, "storm"));
        if (!r.ok()) {
          ++failures;
          return;
        }
        if (r->status == 200) {
          ok_count.fetch_add(1);
        } else if (r->status == 429) {
          shed_count.fetch_add(1);
          // The protocol promises a Retry-After hint and an Unavailable code
          // — and no tenant-limited marker: this is global queue pressure,
          // not a per-tenant verdict.
          EXPECT_FALSE(r->FindHeader("Retry-After").empty());
          EXPECT_TRUE(r->FindHeader(kTenantLimitedHeader).empty());
          auto body = Client::ParseBody(*r);
          ASSERT_TRUE(body.ok());
          ASSERT_NE(body->Find("error"), nullptr);
          EXPECT_EQ(body->Find("error")->GetString("code").ValueOrDie(),
                    "Unavailable");
        } else {
          ADD_FAILURE() << "unexpected HTTP " << r->status << ": " << r->body;
          ++failures;
          return;
        }
      }
    });
    query_counter += kPerClient;
  }
  for (auto& th : clients) th.join();
  storm_over.store(true);
  probe.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_count.load() + shed_count.load(),
            static_cast<uint64_t>(kClients * kPerClient));
  // 6 senders against 1 engine and a 1-deep queue must shed.
  EXPECT_GT(shed_count.load(), 0u);
  EXPECT_GT(ok_count.load(), 0u);

  // Exact conservation: only answered queries kept their ε.
  EXPECT_NEAR(*service.ledger().Spent("storm"),
              static_cast<double>(ok_count.load()) * kEps, 1e-9);
  service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_overload, shed_count.load());
  EXPECT_EQ(stats.completed, ok_count.load());
  server.Stop();
}

TEST_F(NetServerTest, ProtocolErrorsOverTheWire) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  HttpServer server(MakeServiceRouter(&service), {});
  ASSERT_TRUE(server.Start().ok());
  Client client("127.0.0.1", server.port());

  // Route and method errors.
  EXPECT_EQ(client.Get("/nope")->status, 404);
  EXPECT_EQ(client.Get("/v1/query")->status, 405);
  EXPECT_EQ(client.Get("/v1/query")->FindHeader("Allow"), "POST");

  // Malformed / mistyped bodies.
  EXPECT_EQ(client.Post("/v1/query", "not json")->status, 400);
  EXPECT_EQ(client.Post("/v1/query", "{\"sql\": 7}")->status, 400);
  EXPECT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"x\"}")->status, 400);

  // Tenant lifecycle errors. An overflowing JSON number ("1e999" → +inf)
  // must not mint an infinite budget.
  EXPECT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"evil\",\"epsilon\":1e999}")
                ->status,
            400);
  EXPECT_EQ(client.Get("/v1/tenants/ghost")->status, 404);
  ASSERT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"t\",\"epsilon\":0.2}")
                ->status,
            201);
  EXPECT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"t\",\"epsilon\":1}")
                ->status,
            409);

  // Unknown tenant on the query path, then budget exhaustion (403, a DP
  // verdict — distinct from 429's "try again").
  const std::string sql = DistinctToyQuery(0);
  EXPECT_EQ(client.Post("/v1/query", QueryBody(sql, 0.1, "ghost"))->status, 404);
  EXPECT_EQ(client.Post("/v1/query", QueryBody(sql, 0.2, "t"))->status, 200);
  auto exhausted = client.Post("/v1/query", QueryBody(DistinctToyQuery(1), 0.2, "t"));
  EXPECT_EQ(exhausted->status, 403);
  auto body = Client::ParseBody(*exhausted);
  ASSERT_TRUE(body.ok());
  ASSERT_NE(body->Find("error"), nullptr);
  EXPECT_EQ(body->Find("error")->GetString("code").ValueOrDie(),
            "BudgetExhausted");

  // Bad epsilon is refused before admission.
  EXPECT_EQ(client.Post("/v1/query", QueryBody(sql, -1.0, "t"))->status, 400);

  // An unparsable request line closes the connection with 400 after the
  // response; the next Client call transparently reconnects.
  EXPECT_EQ(client.Get("/healthz")->status, 200);
  server.Stop();
}

// POST /v1/workload end to end: a mixed batch (fresh, cache-replayed and
// failing queries) is answered in one round trip with per-query outcomes,
// the sweep receipts and stage timings — and an underfunded batch is refused
// whole with /v1/query's status mapping.
TEST_F(NetServerTest, WorkloadBatchOverTheWire) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  HttpServer server(MakeServiceRouter(&service), {});
  ASSERT_TRUE(server.Start().ok());
  Client client("127.0.0.1", server.port());

  ASSERT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"w\",\"epsilon\":1}")
                ->status,
            201);
  // Warm the answer cache so the batch demonstrably replays one entry.
  ASSERT_EQ(
      client.Post("/v1/query", QueryBody(DistinctToyQuery(0), 0.1, "w"))->status,
      200);

  auto MakeBatch = [](std::initializer_list<std::pair<std::string, double>>
                          queries) {
    Json body = Json::Object();
    body.Set("tenant", Json::Str("w"));
    Json arr = Json::Array();
    for (const auto& [sql, eps] : queries) {
      Json q = Json::Object();
      q.Set("sql", Json::Str(sql));
      q.Set("epsilon", Json::Number(eps));
      arr.Append(std::move(q));
    }
    body.Set("queries", std::move(arr));
    return body.Dump();
  };

  auto r = client.Post("/v1/workload",
                       MakeBatch({{DistinctToyQuery(0), 0.1},
                                  {DistinctToyQuery(1), 0.2},
                                  {"SELECT nope", 0.1}}));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, 200) << r->body;
  auto body = Client::ParseBody(*r);
  ASSERT_TRUE(body.ok());

  const Json* queries = body->Find("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->items().size(), 3u);
  const Json& cached = queries->items()[0];
  EXPECT_TRUE(cached.Find("ok")->AsBool());
  EXPECT_TRUE(cached.Find("cached")->AsBool());
  EXPECT_NE(cached.Find("scalar"), nullptr);
  const Json& fresh = queries->items()[1];
  EXPECT_TRUE(fresh.Find("ok")->AsBool());
  EXPECT_FALSE(fresh.Find("cached")->AsBool());
  EXPECT_NE(fresh.Find("scalar"), nullptr);
  const Json& failed = queries->items()[2];
  EXPECT_FALSE(failed.Find("ok")->AsBool());
  ASSERT_NE(failed.Find("error"), nullptr);

  // The receipts: the one fresh query's plan was compiled in this batch, so
  // it swept its fact rows, building one bitmap per dimension.
  const Json* exec = body->Find("exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_DOUBLE_EQ(*exec->GetNumber("queries"), 1.0);
  EXPECT_DOUBLE_EQ(*exec->GetNumber("scans"), 1.0);
  EXPECT_DOUBLE_EQ(*exec->GetNumber("cell_sweeps"), 0.0);
  auto fresh_bound = query::Binder(&catalog_).BindSql(DistinctToyQuery(1));
  ASSERT_TRUE(fresh_bound.ok()) << fresh_bound.status().ToString();
  EXPECT_DOUBLE_EQ(*exec->GetNumber("predicate_nodes"),
                   static_cast<double>(fresh_bound->dims.size()));
  const Json* stages = body->Find("stage_us");
  ASSERT_NE(stages, nullptr);
  EXPECT_NE(stages->Find("scan"), nullptr);    // the fresh query's sweep
  EXPECT_NE(stages->Find("decode"), nullptr);  // the request body's parse

  // ε accounting: warm 0.1 + fresh 0.2; the replay and the failure flowed
  // back. The refused batch below must not move the account either.
  auto account = Client::ParseBody(*client.Get("/v1/tenants/w"));
  ASSERT_TRUE(account.ok());
  EXPECT_NEAR(*account->GetNumber("spent"), 0.3, 1e-9);

  // Underfunded batch (0.5 + 0.4 > 0.7 remaining): refused whole, 403, no
  // partial spend.
  auto refused = client.Post("/v1/workload",
                             MakeBatch({{DistinctToyQuery(2), 0.5},
                                        {DistinctToyQuery(3), 0.4}}));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 403) << refused->body;
  auto err = Client::ParseBody(*refused);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->Find("error")->GetString("code").ValueOrDie(),
            "BudgetExhausted");
  account = Client::ParseBody(*client.Get("/v1/tenants/w"));
  ASSERT_TRUE(account.ok());
  EXPECT_NEAR(*account->GetNumber("spent"), 0.3, 1e-9);

  // Malformed batches are 400s before admission.
  EXPECT_EQ(client.Post("/v1/workload", "{\"tenant\":\"w\"}")->status, 400);
  EXPECT_EQ(client.Post("/v1/workload",
                        "{\"tenant\":\"w\",\"queries\":[]}")
                ->status,
            400);

  // The workload counters surface in /v1/stats.
  auto stats = Client::ParseBody(*client.Get("/v1/stats"));
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(*stats->GetNumber("workload_batches"), 1.0);
  EXPECT_DOUBLE_EQ(*stats->GetNumber("workload_queries_fresh"), 1.0);
  EXPECT_DOUBLE_EQ(*stats->GetNumber("workload_queries_cached"), 1.0);
  EXPECT_DOUBLE_EQ(*stats->GetNumber("workload_queries_failed"), 1.0);
  EXPECT_DOUBLE_EQ(*stats->GetNumber("workload_cache_skips"), 1.0);
  server.Stop();
}

TEST_F(NetServerTest, GracefulStopDrainsAndRefusesNewConnections) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  HttpServer server(MakeServiceRouter(&service), {});
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  Client client("127.0.0.1", port);
  ASSERT_EQ(client.Get("/healthz")->status, 200);

  server.Stop();
  server.Stop();  // idempotent

  // The kept-alive connection was torn down and nothing listens anymore:
  // both the reuse path and a fresh connection must fail cleanly.
  auto after = client.Get("/healthz");
  EXPECT_FALSE(after.ok());
  Client fresh("127.0.0.1", port);
  EXPECT_FALSE(fresh.Get("/healthz").ok());
}

// The slow-loris bound (docs/wire-protocol.md "Connection deadlines"): a
// client dripping an eternally-unfinished request line is answered 408 and
// closed at the header deadline — while a concurrent well-behaved client on
// the same server never notices.
TEST_F(NetServerTest, SlowLorisReapedAtHeaderDeadlineFastClientUnaffected) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  ServerOptions server_options;
  server_options.header_timeout_ms = 400;
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  const auto start = std::chrono::steady_clock::now();
  RawConn loris("127.0.0.1", server.port());
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(loris.Send("GET /heal"));  // ...and never finishes the line

  // The fast client gets served throughout the loris's lifetime.
  Client fast("127.0.0.1", server.port());
  for (int i = 0; i < 5; ++i) {
    auto r = fast.Get("/healthz");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->status, 200);
  }

  // The loris is reaped: best-effort 408, then EOF, within the deadline
  // (plus scheduling slack), and emphatically not the 5s socket timeout.
  std::string received = loris.DrainUntilEof();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  EXPECT_NE(received.find("408"), std::string::npos) << received;
  EXPECT_NE(received.find("TimeLimit"), std::string::npos) << received;
  EXPECT_GE(elapsed_ms, 350.0);
  EXPECT_LT(elapsed_ms, 3000.0);

  ServerStats stats = server.GetStats();
  EXPECT_EQ(stats.timeouts_header, 1u);
  EXPECT_EQ(stats.timeouts_idle, 0u);

  // The fast client's keep-alive connection is still alive and armed.
  EXPECT_EQ(fast.Get("/healthz")->status, 200);
  server.Stop();
}

// A keep-alive connection that goes quiet after a completed exchange is
// closed silently at the idle deadline — no 408, no error, just EOF.
TEST_F(NetServerTest, KeepAliveIdleTimeoutClosesCleanly) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  ServerOptions server_options;
  server_options.header_timeout_ms = 2000;
  server_options.idle_timeout_ms = 300;
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  RawConn conn("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.Send("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  std::string response = conn.ReadUntil("\"ok\"");
  ASSERT_NE(response.find("200"), std::string::npos) << response;

  // No second request: the server reaps the idle connection. EOF must come
  // from the 300ms idle deadline, not the 5s receive timeout.
  const auto idle_from = std::chrono::steady_clock::now();
  std::string rest = conn.DrainUntilEof();
  const double idle_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                idle_from)
          .count();
  EXPECT_TRUE(rest.empty()) << rest;  // silent close: no 408 for idleness
  EXPECT_GE(idle_ms, 250.0);
  EXPECT_LT(idle_ms, 3000.0);
  EXPECT_EQ(server.GetStats().timeouts_idle, 1u);
  EXPECT_EQ(server.GetStats().timeouts_header, 0u);
  server.Stop();
}

// The two 429 flavors are distinguishable on the wire: a tenant over its own
// limits gets RateLimited + X-DPStarJ-Tenant-Limited: 1, while global queue
// pressure stays Unavailable with no marker (asserted in the overload test).
TEST_F(NetServerTest, TenantLimited429DistinctFromOverload) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  HttpServer server(MakeServiceRouter(&service), {});
  ASSERT_TRUE(server.Start().ok());
  Client client("127.0.0.1", server.port());

  // Register with a bucket of exactly one token that effectively never
  // refills; overrides ride along on POST /v1/tenants.
  auto reg = client.Post(
      "/v1/tenants",
      "{\"tenant\":\"drip\",\"epsilon\":100,\"rate_qps\":0.001,\"burst\":1}");
  ASSERT_TRUE(reg.ok());
  ASSERT_EQ(reg->status, 201);
  auto body = Client::ParseBody(*reg);
  ASSERT_TRUE(body.ok());
  EXPECT_DOUBLE_EQ(*body->GetNumber("rate_qps"), 0.001);

  const std::string sql = DistinctToyQuery(0);
  EXPECT_EQ(client.Post("/v1/query", QueryBody(sql, 0.1, "drip"))->status, 200);

  auto limited = client.Post("/v1/query", QueryBody(sql, 0.1, "drip"));
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->status, 429);
  EXPECT_EQ(limited->FindHeader(kTenantLimitedHeader), "1");
  EXPECT_FALSE(limited->FindHeader("Retry-After").empty());
  auto err = Client::ParseBody(*limited);
  ASSERT_TRUE(err.ok());
  ASSERT_NE(err->Find("error"), nullptr);
  EXPECT_EQ(err->Find("error")->GetString("code").ValueOrDie(), "RateLimited");

  // The refusal is pre-ledger: the tenant paid for one answer only, and the
  // account's admission block shows the rate-limited attempt.
  auto account = client.Get("/v1/tenants/drip");
  ASSERT_EQ(account->status, 200);
  auto acc = Client::ParseBody(*account);
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc->GetNumber("spent"), 0.1);
  const Json* adm = acc->Find("admission");
  ASSERT_NE(adm, nullptr);
  EXPECT_DOUBLE_EQ(*adm->GetNumber("rate_limited"), 1.0);
  EXPECT_DOUBLE_EQ(*adm->GetNumber("in_flight"), 0.0);

  // Another tenant on the same service is unaffected by drip's bucket.
  ASSERT_EQ(client
                .Post("/v1/tenants",
                      "{\"tenant\":\"free\",\"epsilon\":100}")
                ->status,
            201);
  EXPECT_EQ(client.Post("/v1/query", QueryBody(sql, 0.1, "free"))->status, 200);

  // A live tenant's limits can be updated over the wire: re-POST with limit
  // fields answers 200 and applies them — while epsilon is never re-minted.
  auto update = client.Post(
      "/v1/tenants", "{\"tenant\":\"drip\",\"epsilon\":999,\"rate_qps\":0}");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->status, 200);
  auto updated = Client::ParseBody(*update);
  ASSERT_TRUE(updated.ok());
  EXPECT_DOUBLE_EQ(*updated->GetNumber("total"), 100.0);  // not 999
  // Unthrottled: the previously rate-limited tenant answers again.
  EXPECT_EQ(client.Post("/v1/query", QueryBody(DistinctToyQuery(1), 0.1, "drip"))
                ->status,
            200);
  // A plain re-registration without limit fields still conflicts.
  EXPECT_EQ(client.Post("/v1/tenants", "{\"tenant\":\"drip\",\"epsilon\":5}")
                ->status,
            409);

  auto stats = Client::ParseBody(*client.Get("/v1/stats"));
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(*stats->GetNumber("rejected_tenant_limited"), 1.0);
  EXPECT_DOUBLE_EQ(*stats->GetNumber("rejected_overload"), 0.0);
  server.Stop();
}

// The fairness acceptance test: a hot tenant saturating the service (capped
// in-flight, so it cannot fill the global queue) leaves a quiet tenant's
// queries answerable — every one succeeds, with exact ε accounting.
TEST(NetServerFairnessTest, HotTenantCannotStarveQuietTenant) {
  constexpr int kQuietQueries = 15;
  constexpr double kQuietEps = 0.01;
  constexpr int kHotThreads = 4;

  storage::Catalog catalog = MakeHeavyCatalog(30000);
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service_options.queue_capacity = 64;
  service_options.cache_capacity = 0;  // every quiet answer is a paid draw
  service_options.default_tenant_budget = 1e9;
  service::QueryService service(&catalog, service_options);
  // Cap only the hot tenant: at most 2 of its queries may occupy the pool,
  // so the 64-slot queue never fills and "quiet" is never globally shed.
  service::TenantLimits hot_limits;
  hot_limits.max_in_flight = 2;
  service.SetTenantLimits("hot", hot_limits);

  ServerOptions server_options;
  server_options.handler_threads = kHotThreads + 2;
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> storm_over{false};
  std::atomic<uint64_t> hot_ok{0}, hot_limited{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> hot;
  for (int t = 0; t < kHotThreads; ++t) {
    hot.emplace_back([&, t] {
      Client client("127.0.0.1", server.port());
      for (int i = 0; !storm_over.load(); ++i) {
        int n = t * 100000 + i;
        std::string sql = Format(
            "SELECT count(*) FROM Fact, Dim WHERE Fact.dk = Dim.dk "
            "AND Dim.bucket BETWEEN %d AND %d",
            n % 200 + 1, n % 200 + 180);
        auto r = client.Post("/v1/query", QueryBody(sql, 0.001, "hot"));
        if (!r.ok()) {
          ++failures;
          return;
        }
        if (r->status == 200) {
          hot_ok.fetch_add(1);
        } else if (r->status == 429) {
          // Always the tenant-limited flavor: the global queue has room.
          hot_limited.fetch_add(1);
          if (r->FindHeader(kTenantLimitedHeader) != "1") {
            ADD_FAILURE() << "expected tenant-limited marker: " << r->body;
            ++failures;
            return;
          }
        } else {
          ADD_FAILURE() << "unexpected HTTP " << r->status << ": " << r->body;
          ++failures;
          return;
        }
      }
    });
  }

  // The storm must be raging before the quiet tenant starts: until the hot
  // threads have queries in flight the cap has nothing to refuse, and a
  // quiet loop that finished first would leave it untested. Wait until the
  // hot tenant has been capped at least once.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (hot_limited.load() == 0 && failures.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The quiet tenant, sequential, must get every answer while the storm
  // rages — fair dispatch bounds its wait to the hot tenant's in-flight cap.
  {
    Client client("127.0.0.1", server.port());
    for (int i = 0; i < kQuietQueries; ++i) {
      std::string sql = Format(
          "SELECT count(*) FROM Fact, Dim WHERE Fact.dk = Dim.dk "
          "AND Dim.bucket BETWEEN 1 AND %d",
          i + 2);
      auto r = client.Post("/v1/query", QueryBody(sql, kQuietEps, "quiet"));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->status, 200) << r->body;
    }
  }
  storm_over.store(true);
  for (auto& th : hot) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(hot_limited.load(), 0u) << "the hot tenant was never capped";
  // Exact ε accounting for the quiet tenant: one paid draw per query.
  EXPECT_NEAR(*service.ledger().Spent("quiet"), kQuietQueries * kQuietEps, 1e-9);
  service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_tenant_limited, hot_limited.load());
  EXPECT_EQ(stats.tenant_capped, hot_limited.load());
  EXPECT_EQ(stats.rejected_overload, 0u);
  server.Stop();
}

TEST_F(NetServerTest, ConnectionCapShedsWith503) {
  service::ServiceOptions service_options;
  service_options.num_engines = 1;
  service::QueryService service(&catalog_, service_options);
  ServerOptions server_options;
  server_options.max_connections = 2;
  HttpServer server(MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  Client a("127.0.0.1", server.port());
  Client b("127.0.0.1", server.port());
  ASSERT_EQ(a.Get("/healthz")->status, 200);
  ASSERT_EQ(b.Get("/healthz")->status, 200);

  // The third concurrent connection is over the cap: the server answers 503
  // and closes instead of letting it occupy parser/handler resources.
  Client c("127.0.0.1", server.port());
  auto r = c.Get("/healthz");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->status, 503);

  // Capacity frees once an earlier connection goes away (the server reaps
  // the FIN asynchronously, so poll briefly).
  a.Close();
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    Client d("127.0.0.1", server.port());
    auto ok = d.Get("/healthz");
    recovered = ok.ok() && ok->status == 200;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
  server.Stop();
}

}  // namespace
}  // namespace dpstarj::net
