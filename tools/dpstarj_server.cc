// dpstarj-server — the DP-starJ query service behind the HTTP front door.
//
// Generates an SSB catalog (--sf), runs a QueryService over it, and serves
// the wire protocol of src/net/service_api.h until SIGINT/SIGTERM, then
// drains gracefully: the listen socket closes first, in-flight queries are
// answered, the pool shuts down, and the final service stats are printed.
//
//   $ ./dpstarj-server --port 8080 --sf 0.01 --default-budget 10
//   $ curl -s localhost:8080/healthz
//   $ curl -s -X POST localhost:8080/v1/tenants \
//       -d '{"tenant":"analytics","epsilon":2.0}'
//   $ curl -s -X POST localhost:8080/v1/query \
//       -d '{"sql":"SELECT count(*) FROM Date, Lineorder WHERE
//            Lineorder.orderdate = Date.datekey AND Date.year = 1993",
//            "epsilon":0.5,"tenant":"analytics"}'
//   $ curl -s localhost:8080/v1/tenants/analytics
//   $ curl -s localhost:8080/v1/stats
//
// --selfcheck runs the CI smoke path instead of waiting for traffic: an
// in-process net::Client registers a tenant, issues one query and one stats
// call, the process SIGINTs itself, and the exit code reports whether the
// round trips and the graceful drain all succeeded.

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/parallel.h"
#include "net/client.h"
#include "obs/access_log.h"
#include "obs/metrics.h"
#include "net/http_server.h"
#include "net/service_api.h"
#include "service/query_service.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

using namespace dpstarj;

namespace {

struct Flags {
  std::string host = "127.0.0.1";
  int port = 8080;
  double scale_factor = 0.01;
  int engines = 4;
  int queue = 256;
  int handler_threads = 8;
  double default_budget = 0.0;  // <= 0: tenants must be registered explicitly
  // Connection deadlines (0 disables one); see docs/operations.md.
  int header_timeout_ms = 10'000;
  int body_timeout_ms = 30'000;
  int idle_timeout_ms = 60'000;
  int write_timeout_ms = 30'000;
  // Default per-tenant fair-admission limits (0 disables one); overridable
  // per tenant via POST /v1/tenants.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  int tenant_inflight = 0;
  // Telemetry: JSON-lines access log ("" disables, "-" = stdout) and the
  // slow-request WARN threshold (0 disables).
  std::string access_log;
  int slow_query_ms = 0;
  bool selfcheck = false;
  // Pin engine-pool scan workers round-robin to cores (exec/parallel.h).
  bool pin_workers = false;
  // With --selfcheck: write the scraped /metrics body here so CI can run
  // tools/check_metrics.py against a real exposition.
  std::string metrics_dump;
  // With --selfcheck: capture GET /v1/profile under a query load and write
  // the folded stacks here (CI feeds it to tools/check_profile.py).
  std::string profile_dump;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host A] [--port N] [--sf S] [--engines N] [--queue N]\n"
      "          [--handler-threads N] [--default-budget E]\n"
      "          [--header-timeout-ms N] [--body-timeout-ms N]\n"
      "          [--idle-timeout-ms N] [--write-timeout-ms N]\n"
      "          [--tenant-rate Q] [--tenant-burst B]\n"
      "          [--tenant-inflight N] [--access-log PATH]\n"
      "          [--slow-query-ms N] [--pin-workers] [--selfcheck]\n"
      "          [--metrics-dump PATH] [--profile-dump PATH]\n"
      "  --port 0 picks an ephemeral port (printed on startup)\n"
      "  --default-budget E auto-registers unknown tenants with total eps E\n"
      "  --header/body/idle/write-timeout-ms: connection deadlines, 0 disables\n"
      "  --tenant-rate/burst/inflight: default per-tenant admission limits\n"
      "    (0 disables; per-tenant overrides via POST /v1/tenants)\n"
      "  --access-log PATH: JSON-lines per-request log with stage timings\n"
      "    ('-' = stdout); /metrics is always served regardless\n"
      "  --slow-query-ms N: WARN-log requests slower than N ms (0 disables)\n"
      "  --pin-workers: pin scan worker threads round-robin to cores\n"
      "    (steady-state dedicated hosts only; see docs/operations.md)\n"
      "  --selfcheck: serve, run one client round trip, SIGINT itself, exit\n"
      "  --metrics-dump PATH: with --selfcheck, save the /metrics scrape to\n"
      "    PATH (CI feeds it to tools/check_metrics.py)\n"
      "  --profile-dump PATH: with --selfcheck, capture GET /v1/profile under\n"
      "    a query load and save the folded stacks to PATH (CI feeds it to\n"
      "    tools/check_profile.py)\n"
      "  full reference: docs/operations.md\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next_num = [&](double* out) {
      if (i + 1 >= argc) return false;
      return ParseDouble(argv[++i], out);
    };
    // Integer flags are range-checked BEFORE the cast — static_cast of an
    // out-of-int-range double is UB, same hardening as the wire's
    // max_in_flight validation in service_api.cc.
    auto next_int = [&](int* out) {
      double v = 0.0;
      if (!next_num(&v)) return false;
      if (!(v >= 0 && v <= 1e9) || v != std::floor(v)) {
        std::fprintf(stderr, "%s must be an integer in [0, 1e9]\n", arg.c_str());
        return false;
      }
      *out = static_cast<int>(v);
      return true;
    };
    double v = 0.0;
    if (arg == "--host" && i + 1 < argc) {
      flags->host = argv[++i];
    } else if (arg == "--port" && next_num(&v)) {
      if (!(v >= 0 && v <= 65535) || v != std::floor(v)) {
        std::fprintf(stderr, "--port must be an integer in [0, 65535]\n");
        return false;
      }
      flags->port = static_cast<int>(v);
    } else if (arg == "--sf" && next_num(&v)) {
      flags->scale_factor = v;
    } else if (arg == "--engines" && next_int(&flags->engines)) {
    } else if (arg == "--queue" && next_int(&flags->queue)) {
    } else if (arg == "--handler-threads" && next_int(&flags->handler_threads)) {
    } else if (arg == "--default-budget" && next_num(&v)) {
      flags->default_budget = v;
    } else if (arg == "--header-timeout-ms" && next_int(&flags->header_timeout_ms)) {
    } else if (arg == "--body-timeout-ms" && next_int(&flags->body_timeout_ms)) {
    } else if (arg == "--idle-timeout-ms" && next_int(&flags->idle_timeout_ms)) {
    } else if (arg == "--write-timeout-ms" && next_int(&flags->write_timeout_ms)) {
    } else if (arg == "--tenant-rate" && next_num(&v)) {
      flags->tenant_rate = v;
    } else if (arg == "--tenant-burst" && next_num(&v)) {
      flags->tenant_burst = v;
    } else if (arg == "--tenant-inflight" && next_int(&flags->tenant_inflight)) {
    } else if (arg == "--access-log" && i + 1 < argc) {
      flags->access_log = argv[++i];
    } else if (arg == "--slow-query-ms" && next_int(&flags->slow_query_ms)) {
    } else if (arg == "--pin-workers") {
      flags->pin_workers = true;
    } else if (arg == "--selfcheck") {
      flags->selfcheck = true;
    } else if (arg == "--metrics-dump" && i + 1 < argc) {
      flags->metrics_dump = argv[++i];
    } else if (arg == "--profile-dump" && i + 1 < argc) {
      flags->profile_dump = argv[++i];
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  // Same validation posture as the wire path (service_api.cc): reject what
  // would abort deeper in (a zero engine pool trips a CHECK) or silently
  // misbehave (NaN/negative admission limits).
  if (flags->engines < 1) {
    std::fprintf(stderr, "--engines must be >= 1\n");
    return false;
  }
  if (!std::isfinite(flags->tenant_rate) || flags->tenant_rate < 0.0 ||
      !std::isfinite(flags->tenant_burst) || flags->tenant_burst < 0.0) {
    std::fprintf(stderr, "--tenant-rate/--tenant-burst must be finite and >= 0\n");
    return false;
  }
  if (!std::isfinite(flags->scale_factor) || flags->scale_factor <= 0.0) {
    std::fprintf(stderr, "--sf must be positive and finite\n");
    return false;
  }
  return true;
}

// The selfcheck client: one full protocol round trip against the live
// server, then a process-directed SIGINT so the main thread's sigwait-based
// drain path is exercised exactly as an operator's Ctrl-C would.
int RunSelfcheck(const std::string& host, uint16_t port,
                 const std::string& metrics_dump,
                 const std::string& profile_dump) {
  net::Client client(host, port);

  auto health = client.Get("/healthz");
  if (!health.ok() || health->status != 200) {
    std::fprintf(stderr, "selfcheck: /healthz failed: %s\n",
                 health.ok() ? Format("HTTP %d", health->status).c_str()
                             : health.status().ToString().c_str());
    return 1;
  }
  auto reg = client.Post("/v1/tenants",
                         "{\"tenant\":\"smoke\",\"epsilon\":2.0}");
  if (!reg.ok() || reg->status != 201) {
    std::fprintf(stderr, "selfcheck: tenant registration failed\n");
    return 1;
  }
  auto sql = ssb::GetQuerySql("Qc1");
  if (!sql.ok()) {
    std::fprintf(stderr, "selfcheck: %s\n", sql.status().ToString().c_str());
    return 1;
  }
  net::Json query = net::Json::Object();
  query.Set("sql", net::Json::Str(*sql));
  query.Set("epsilon", net::Json::Number(0.5));
  query.Set("tenant", net::Json::Str("smoke"));
  auto answer = client.Post("/v1/query", query.Dump());
  if (!answer.ok() || answer->status != 200) {
    std::fprintf(stderr, "selfcheck: query failed: %s\n",
                 answer.ok() ? answer->body.c_str()
                             : answer.status().ToString().c_str());
    return 1;
  }
  auto body = net::Client::ParseBody(*answer);
  if (!body.ok() || body->Find("scalar") == nullptr) {
    std::fprintf(stderr, "selfcheck: malformed answer body\n");
    return 1;
  }
  auto account = client.Get("/v1/tenants/smoke");
  if (!account.ok() || account->status != 200) {
    std::fprintf(stderr, "selfcheck: account lookup failed\n");
    return 1;
  }
  auto stats = client.Get("/v1/stats");
  if (!stats.ok() || stats->status != 200) {
    std::fprintf(stderr, "selfcheck: stats failed\n");
    return 1;
  }
  // Telemetry smoke: a small burst (cache replays — free under DP) so the
  // stage and duration histograms carry data, then both scrape endpoints.
  for (int i = 0; i < 8; ++i) {
    auto burst = client.Post("/v1/query", query.Dump());
    if (!burst.ok() || burst->status != 200) {
      std::fprintf(stderr, "selfcheck: burst query %d failed\n", i);
      return 1;
    }
    if (burst->FindHeader("X-DPStarJ-Trace-Id").empty()) {
      std::fprintf(stderr, "selfcheck: response missing X-DPStarJ-Trace-Id\n");
      return 1;
    }
  }
  // One /v1/workload batch: a cache replay of the query above plus two
  // fresh queries. Populates the workload counters and batch-size/duration
  // histograms before the scrape.
  net::Json batch = net::Json::Object();
  batch.Set("tenant", net::Json::Str("smoke"));
  net::Json batch_queries = net::Json::Array();
  for (const char* name : {"Qc1", "Qc2", "Qc3"}) {
    auto batch_sql = ssb::GetQuerySql(name);
    if (!batch_sql.ok()) {
      std::fprintf(stderr, "selfcheck: %s\n",
                   batch_sql.status().ToString().c_str());
      return 1;
    }
    net::Json entry = net::Json::Object();
    entry.Set("sql", net::Json::Str(*batch_sql));
    entry.Set("epsilon", net::Json::Number(0.5));
    batch_queries.Append(std::move(entry));
  }
  batch.Set("queries", std::move(batch_queries));
  auto workload = client.Post("/v1/workload", batch.Dump());
  if (!workload.ok() || workload->status != 200) {
    std::fprintf(stderr, "selfcheck: workload failed: %s\n",
                 workload.ok() ? workload->body.c_str()
                               : workload.status().ToString().c_str());
    return 1;
  }
  auto workload_body = net::Client::ParseBody(*workload);
  if (!workload_body.ok() || workload_body->Find("queries") == nullptr ||
      workload_body->Find("queries")->items().size() != 3 ||
      workload_body->Find("exec") == nullptr) {
    std::fprintf(stderr, "selfcheck: malformed workload body\n");
    return 1;
  }
  // Streaming-ingest round trip: append two fact rows (all FK values 1 —
  // every SSB dimension key space is 1-based, so they resolve at any scale
  // factor), check the epoch advanced, and re-run the query to confirm the
  // post-append answer is stamped with the new epoch (a fresh DP release;
  // the plan cache should extend rather than recompile underneath it).
  net::Json ingest = net::Json::Object();
  ingest.Set("table", net::Json::Str("Lineorder"));
  net::Json ingest_rows = net::Json::Array();
  for (int r = 0; r < 2; ++r) {
    net::Json row = net::Json::Array();
    for (double cell : {1e6 + r, 1.0, 1.0, 1.0, 1.0, 5.0, 1234.5, 100.25}) {
      row.Append(net::Json::Number(cell));
    }
    ingest_rows.Append(std::move(row));
  }
  ingest.Set("rows", std::move(ingest_rows));
  auto appended = client.Post("/v1/ingest", ingest.Dump());
  if (!appended.ok() || appended->status != 200) {
    std::fprintf(stderr, "selfcheck: ingest failed: %s\n",
                 appended.ok() ? appended->body.c_str()
                               : appended.status().ToString().c_str());
    return 1;
  }
  auto ingest_body = net::Client::ParseBody(*appended);
  if (!ingest_body.ok() || ingest_body->Find("version") == nullptr ||
      ingest_body->Find("version")->AsNumber() != 1.0 ||
      ingest_body->Find("appended") == nullptr ||
      ingest_body->Find("appended")->AsNumber() != 2.0) {
    std::fprintf(stderr, "selfcheck: malformed ingest body: %s\n",
                 appended->body.c_str());
    return 1;
  }
  // A short row must be refused whole (400, nothing appended).
  auto bad = client.Post(
      "/v1/ingest", "{\"table\":\"Lineorder\",\"rows\":[[1,2,3]]}");
  if (!bad.ok() || bad->status != 400) {
    std::fprintf(stderr, "selfcheck: malformed ingest row not rejected\n");
    return 1;
  }
  net::Json requery = net::Json::Object();
  requery.Set("sql", net::Json::Str(*sql));
  requery.Set("epsilon", net::Json::Number(0.25));
  requery.Set("tenant", net::Json::Str("smoke"));
  auto post_ingest = client.Post("/v1/query", requery.Dump());
  if (!post_ingest.ok() || post_ingest->status != 200) {
    std::fprintf(stderr, "selfcheck: post-ingest query failed\n");
    return 1;
  }
  auto post_body = net::Client::ParseBody(*post_ingest);
  if (!post_body.ok() || post_body->Find("epoch") == nullptr ||
      post_body->Find("epoch")->AsNumber() != 1.0) {
    std::fprintf(stderr, "selfcheck: post-ingest answer not at epoch 1: %s\n",
                 post_ingest->body.c_str());
    return 1;
  }
  if (!profile_dump.empty()) {
    // Capture GET /v1/profile while a second thread drives a steady query
    // load, so engine frames actually appear in the folded stacks. The load
    // tenant's epsilon varies per query, which defeats the answer cache —
    // every request runs a real scan instead of a sub-microsecond replay.
    auto prof_reg = client.Post("/v1/tenants",
                                "{\"tenant\":\"prof\",\"epsilon\":1e9}");
    if (!prof_reg.ok() || prof_reg->status != 201) {
      std::fprintf(stderr, "selfcheck: profile tenant registration failed\n");
      return 1;
    }
    std::atomic<bool> stop{false};
    std::thread load([&] {
      net::Client load_client(host, port);
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        net::Json q = net::Json::Object();
        q.Set("sql", net::Json::Str(*sql));
        q.Set("epsilon", net::Json::Number(0.01 + 1e-6 * i));
        q.Set("tenant", net::Json::Str("prof"));
        auto r = load_client.Post("/v1/query", q.Dump());
        if (!r.ok() || r->status != 200) break;
      }
    });
    // 499 Hz (prime: no aliasing against periodic work) for one second —
    // plenty of CPU-time ticks even on a one-core CI runner under load.
    auto profile = client.Get("/v1/profile?seconds=1&hz=499");
    stop.store(true, std::memory_order_relaxed);
    load.join();
    if (!profile.ok() || profile->status != 200 || profile->body.empty()) {
      std::fprintf(stderr, "selfcheck: /v1/profile failed: %s\n",
                   profile.ok() ? Format("HTTP %d body=%zu bytes",
                                         profile->status, profile->body.size())
                                      .c_str()
                                : profile.status().ToString().c_str());
      return 1;
    }
    std::FILE* f = std::fopen(profile_dump.c_str(), "w");
    bool wrote =
        f != nullptr &&
        std::fwrite(profile->body.data(), 1, profile->body.size(), f) ==
            profile->body.size();
    if (f != nullptr && std::fclose(f) != 0) wrote = false;
    if (!wrote) {
      std::fprintf(stderr, "selfcheck: cannot write %s\n",
                   profile_dump.c_str());
      return 1;
    }
    std::printf("selfcheck: /v1/profile OK (%s samples, %zu bytes)\n",
                std::string(profile->FindHeader("X-DPStarJ-Profile-Samples"))
                    .c_str(),
                profile->body.size());
  }
  auto metrics = client.Get("/metrics");
  if (!metrics.ok() || metrics->status != 200) {
    std::fprintf(stderr, "selfcheck: /metrics failed\n");
    return 1;
  }
  for (const char* needle :
       {"dpstarj_queries_submitted_total", "dpstarj_queries_completed_total",
        "dpstarj_query_duration_seconds_bucket",
        "dpstarj_stage_duration_seconds_bucket",
        "dpstarj_tenant_epsilon_remaining", "dpstarj_http_requests_total",
        "dpstarj_workload_batches_total", "dpstarj_workload_batch_size_bucket",
        "dpstarj_workload_duration_seconds_bucket", "dpstarj_profiler_mode",
        "dpstarj_build_info", "dpstarj_process_uptime_seconds",
        "dpstarj_stage_cycles_total", "dpstarj_stage_task_clock_ns_total",
        "dpstarj_worker_busy_seconds", "dpstarj_queue_depth_sampled_bucket",
        "dpstarj_ingest_batches_total", "dpstarj_ingest_rows_total",
        "dpstarj_ingest_duration_seconds_bucket",
        "dpstarj_ingest_api_duration_seconds_bucket", "dpstarj_plan_extends",
        "dpstarj_plan_recompiles", "dpstarj_plan_column_builds",
        "dpstarj_plan_column_reuses", "dpstarj_plan_column_copies",
        "dpstarj_plan_cell_builds", "dpstarj_plan_cell_declines"}) {
    if (metrics->body.find(needle) == std::string::npos) {
      std::fprintf(stderr, "selfcheck: /metrics missing %s\n", needle);
      return 1;
    }
  }
  if (!metrics_dump.empty()) {
    std::FILE* f = std::fopen(metrics_dump.c_str(), "w");
    bool wrote =
        f != nullptr &&
        std::fwrite(metrics->body.data(), 1, metrics->body.size(), f) ==
            metrics->body.size();
    if (f != nullptr && std::fclose(f) != 0) wrote = false;
    if (!wrote) {
      std::fprintf(stderr, "selfcheck: cannot write %s\n",
                   metrics_dump.c_str());
      return 1;
    }
  }
  auto traces = client.Get("/v1/trace/stats");
  if (!traces.ok() || traces->status != 200) {
    std::fprintf(stderr, "selfcheck: /v1/trace/stats failed\n");
    return 1;
  }
  auto trace_body = net::Client::ParseBody(*traces);
  if (!trace_body.ok() || trace_body->Find("stages") == nullptr) {
    std::fprintf(stderr, "selfcheck: malformed /v1/trace/stats body\n");
    return 1;
  }
  std::printf("selfcheck: noisy answer %s\n", answer->body.c_str());
  std::printf("selfcheck: workload exec %s\n",
              workload_body->Find("exec")->Dump().c_str());
  std::printf("selfcheck: ingest %s\n", appended->body.c_str());
  std::printf("selfcheck: account %s\n", account->body.c_str());
  std::printf("selfcheck: /metrics OK (%zu bytes)\n", metrics->body.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  Logger::SetLevel(LogLevel::kInfo);

  // Block SIGINT/SIGTERM in every thread (children inherit the mask); the
  // main thread collects them with sigwait below — the only async-signal-safe
  // way to run a multi-thread drain from a signal.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  // Before any scan runs so the very first pool threads are pinned.
  if (flags.pin_workers) exec::MorselPool::SetPinWorkers(true);

  std::printf("generating SSB catalog at sf=%g ...\n", flags.scale_factor);
  ssb::SsbOptions ssb_options;
  ssb_options.scale_factor = flags.scale_factor;
  auto catalog = ssb::GenerateSsb(ssb_options);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n", catalog.status().ToString().c_str());
    return 1;
  }

  // One process-wide registry: the service's lifecycle counters, the API's
  // latency histograms and the HTTP layer's connection counters all land on
  // the same GET /metrics page.
  auto metrics = std::make_shared<obs::MetricsRegistry>();

  service::ServiceOptions service_options;
  service_options.num_engines = flags.engines;
  service_options.queue_capacity = static_cast<size_t>(flags.queue);
  if (flags.default_budget > 0.0) {
    service_options.default_tenant_budget = flags.default_budget;
  }
  service_options.admission.defaults.rate_qps = flags.tenant_rate;
  service_options.admission.defaults.burst = flags.tenant_burst;
  service_options.admission.defaults.max_in_flight = flags.tenant_inflight;
  service_options.metrics = metrics;
  service::QueryService service(&*catalog, service_options);

  net::ServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.handler_threads = flags.handler_threads;
  server_options.header_timeout_ms = flags.header_timeout_ms;
  server_options.body_timeout_ms = flags.body_timeout_ms;
  server_options.idle_timeout_ms = flags.idle_timeout_ms;
  server_options.write_timeout_ms = flags.write_timeout_ms;
  server_options.metrics = metrics.get();
  server_options.slow_query_ms = flags.slow_query_ms;
  if (!flags.access_log.empty()) {
    auto log = obs::AccessLog::Open(flags.access_log);
    if (!log.ok()) {
      std::fprintf(stderr, "access log: %s\n", log.status().ToString().c_str());
      return 1;
    }
    server_options.access_log = std::shared_ptr<obs::AccessLog>(std::move(*log));
  }
  net::HttpServer server(net::MakeServiceRouter(&service), server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("dpstarj-server listening on http://%s:%u (engines=%d, queue=%d)\n",
              server.host().c_str(), server.port(), flags.engines, flags.queue);
  // Supervisors (tools/fuzz_ingest.py, smoke scripts) scrape this line from a
  // pipe to learn the ephemeral port; don't let stdio buffer it indefinitely.
  std::fflush(stdout);

  std::thread selfcheck;
  int selfcheck_rc = 0;
  if (flags.selfcheck) {
    selfcheck = std::thread([&] {
      selfcheck_rc = RunSelfcheck(flags.host, server.port(),
                                  flags.metrics_dump, flags.profile_dump);
      // Drive the normal shutdown path; process-directed so sigwait sees it.
      kill(getpid(), SIGINT);
    });
  }

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("\n%s received, draining ...\n", strsignal(sig));
  if (selfcheck.joinable()) selfcheck.join();

  server.Stop();
  service.Shutdown();

  net::ServerStats net_stats = server.GetStats();
  std::printf("server: %llu connections (%llu rejected), %llu requests "
              "(%llu bad), timeouts %llu hdr / %llu body / %llu idle / "
              "%llu write\n",
              static_cast<unsigned long long>(net_stats.connections_accepted),
              static_cast<unsigned long long>(net_stats.connections_rejected),
              static_cast<unsigned long long>(net_stats.requests_handled),
              static_cast<unsigned long long>(net_stats.bad_requests),
              static_cast<unsigned long long>(net_stats.timeouts_header),
              static_cast<unsigned long long>(net_stats.timeouts_body),
              static_cast<unsigned long long>(net_stats.timeouts_idle),
              static_cast<unsigned long long>(net_stats.timeouts_write));
  std::printf("service: %s\n", service.Stats().ToString().c_str());
  return selfcheck_rc;
}
