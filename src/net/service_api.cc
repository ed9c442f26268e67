#include "net/service_api.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/build_info.h"
#include "common/cpu.h"
#include "common/string_util.h"
#include "exec/kernels/kernels.h"
#include "exec/parallel.h"
#include "obs/metrics.h"
#include "obs/prof/counters.h"
#include "obs/prof/sampler.h"
#include "obs/trace.h"

namespace dpstarj::net {

namespace {

HttpResponse JsonResponse(int status, const Json& body) {
  return HttpResponse::MakeJson(status, body.Dump());
}

HttpResponse ErrorResponse(const Status& status) {
  return JsonResponse(HttpStatusForError(status), ErrorToJson(status));
}

/// Telemetry handles of one answer route (/v1/query, /v1/workload), resolved
/// once against the service registry and shared by the handler closures.
/// `name`/`help` select the route's end-to-end duration family.
struct ApiTelemetry {
  ApiTelemetry(obs::MetricsRegistry* reg, const char* name, const char* help)
      : stage_metrics(reg) {
    ok = reg->GetHistogram(name, help, {{"outcome", "ok"}});
    budget_exhausted =
        reg->GetHistogram(name, help, {{"outcome", "budget_exhausted"}});
    tenant_limited =
        reg->GetHistogram(name, help, {{"outcome", "tenant_limited"}});
    overload = reg->GetHistogram(name, help, {{"outcome", "overload"}});
    bad_request = reg->GetHistogram(name, help, {{"outcome", "bad_request"}});
    not_found = reg->GetHistogram(name, help, {{"outcome", "not_found"}});
    error = reg->GetHistogram(name, help, {{"outcome", "error"}});
  }

  obs::Histogram* DurationFor(int status, bool is_tenant_limited) {
    switch (status) {
      case 200:
        return ok;
      case 403:
        return budget_exhausted;
      case 429:
        return is_tenant_limited ? tenant_limited : overload;
      case 400:
        return bad_request;
      case 404:
        return not_found;
      default:
        return error;
    }
  }

  obs::StageMetrics stage_metrics;
  obs::Histogram* ok;
  obs::Histogram* budget_exhausted;
  obs::Histogram* tenant_limited;
  obs::Histogram* overload;
  obs::Histogram* bad_request;
  obs::Histogram* not_found;
  obs::Histogram* error;
};

/// Seals a /v1/query response: folds the trace into the stage histograms,
/// observes the end-to-end duration under its outcome label, and attaches the
/// trace + tenant so the server can emit the trace-id header and access-log
/// line. Every return path of the query route funnels through here.
HttpResponse FinishTraced(ApiTelemetry* api, std::shared_ptr<obs::Trace> trace,
                          std::string tenant, HttpResponse resp) {
  api->stage_metrics.ObserveTrace(*trace);
  // ElapsedNs starts at handler entry; the socket-read spans happened before
  // the trace existed, so they are added back for the end-to-end number.
  const double seconds =
      static_cast<double>(trace->ElapsedNs() +
                          trace->stage_ns(obs::Stage::kHeaderRead) +
                          trace->stage_ns(obs::Stage::kBodyRead)) *
      1e-9;
  const bool is_tenant_limited = !resp.FindHeader(kTenantLimitedHeader).empty();
  api->DurationFor(resp.status, is_tenant_limited)->Observe(seconds);
  resp.tenant = std::move(tenant);
  resp.trace = std::move(trace);
  return resp;
}

/// Decorates a 429 refusal with its Retry-After hint. A tenant-limited
/// refusal (RateLimited) is additionally marked X-DPStarJ-Tenant-Limited: 1 —
/// the caller itself is over its limits, other tenants are unaffected — and
/// its hint comes from the tenant's own token bucket; a global-overload 429
/// uses the configured constant. No-op on any other status.
void AttachRetryAfter(service::QueryService* service, const ApiOptions& options,
                      const Status& status, const std::string& tenant,
                      HttpResponse* resp) {
  if (resp->status != 429) return;
  int retry_after = options.retry_after_seconds;
  if (status.code() == StatusCode::kRateLimited) {
    resp->headers.push_back({kTenantLimitedHeader, "1"});
    // Clamp before the cast: a wire-settable rate like 1e-300 makes the hint
    // astronomically large, and casting an out-of-int-range double is UB. An
    // hour is as honest as any larger number.
    double hint =
        std::min(service->admission().RetryAfterSeconds(tenant), 3600.0);
    retry_after = std::max(1, static_cast<int>(std::ceil(hint)));
  }
  resp->headers.push_back({"Retry-After", Format("%d", retry_after)});
}

/// The raw value of `key` in a query string ("a=1&b=2"), or "" when absent.
/// No %-decoding: every parameter this API reads is a plain number.
std::string QueryParam(const std::string& query, const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return std::string();
}

/// Parses a finite double out of `text` entirely (trailing junk rejected).
bool ParseFullDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Reads the value of one `rows` member into `rows`. The Status is the first
/// shape error in document order; syntax errors stay with the reader, which
/// reads on to the end of the value either way.
Status ReadIngestRows(JsonReader* r,
                      std::vector<std::vector<storage::Value>>* rows) {
  rows->clear();
  Status error;
  auto refuse = [&](const char* what) {
    r->Skip();
    if (error.ok()) error = Status::InvalidArgument(what);
  };
  if (r->Peek() != Json::Type::kArray) {
    refuse("'rows' must be a non-empty array of rows");
    return error;
  }
  size_t width = 0;
  r->BeginArray();
  while (r->NextItem()) {
    if (r->Peek() != Json::Type::kArray) {
      refuse("each ingest row must be an array of cells");
      continue;
    }
    std::vector<storage::Value>& row = rows->emplace_back();
    row.reserve(width);
    r->BeginArray();
    while (r->NextItem()) {
      const Json::Type type = r->Peek();
      if (type == Json::Type::kNumber) {
        // 2^53 is the last double whose neighbours are all representable.
        const double v = r->Number();
        if (v == std::floor(v) && std::abs(v) <= 9007199254740992.0) {
          row.emplace_back(static_cast<int64_t>(v));
        } else {
          row.emplace_back(v);
        }
      } else if (type == Json::Type::kString) {
        std::string s;
        r->String(&s);
        row.emplace_back(std::move(s));
      } else {
        // Booleans, nulls and containers have no column type.
        refuse("ingest cells must be numbers or strings");
      }
    }
    width = row.size();
  }
  return error;
}

/// Exports the busy/idle accounting of one worker pool as scrape-time gauges.
void ExportWorkerGauges(obs::MetricsRegistry* reg, const char* pool,
                        size_t index, uint64_t busy_ns, uint64_t tasks) {
  const obs::Labels labels = {{"pool", pool}, {"worker", Format("%zu", index)}};
  reg->GetGauge("dpstarj_worker_busy_seconds",
                "Lifetime busy time per pool worker (everything else the "
                "worker was idle on its queue)",
                labels)
      ->Set(static_cast<double>(busy_ns) * 1e-9);
  reg->GetGauge("dpstarj_worker_tasks",
                "Lifetime tasks (jobs or morsel roles) executed per pool worker",
                labels)
      ->Set(static_cast<double>(tasks));
}

}  // namespace

Status DecodeIngestBody(std::string_view body, std::string* table,
                        std::vector<std::vector<storage::Value>>* rows) {
  JsonReader r(body);
  Status table_error = Status::InvalidArgument("missing field 'table'");
  Status rows_error =
      Status::InvalidArgument("'rows' must be a non-empty array of rows");
  const bool is_object = r.Peek() == Json::Type::kObject;
  if (is_object) {
    r.BeginObject();
    std::string key;
    while (r.NextKey(&key)) {
      if (key == "table") {
        if (r.Peek() == Json::Type::kString) {
          r.String(table);
          table_error = Status::OK();
        } else {
          r.Skip();
          table_error = Status::InvalidArgument("field 'table' must be a string");
        }
      } else if (key == "rows") {
        rows_error = ReadIngestRows(&r, rows);
      } else {
        r.Skip();
      }
    }
  } else {
    r.Skip();
  }
  if (!r.End()) return r.status();
  if (!is_object) return Status::InvalidArgument("body must be a JSON object");
  if (!table_error.ok()) return table_error;
  return rows_error;
}

int HttpStatusForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
      return 409;
    case StatusCode::kBudgetExhausted:
      // The request was understood and refused on privacy-accounting grounds:
      // a client-side condition no retry will fix.
      return 403;
    case StatusCode::kUnavailable:
      return 429;
    case StatusCode::kRateLimited:
      // Same HTTP status as global overload, but the response is additionally
      // marked X-DPStarJ-Tenant-Limited: 1 — the caller itself is over its
      // limits; other tenants are unaffected.
      return 429;
    case StatusCode::kNotSupported:
      return 501;
    case StatusCode::kTimeLimit:
      return 504;
    case StatusCode::kInternal:
    case StatusCode::kIoError:
      return 500;
  }
  return 500;
}

Json ErrorToJson(const Status& status) {
  Json err = Json::Object();
  err.Set("code", Json::Str(StatusCodeToString(status.code())));
  err.Set("message", Json::Str(status.message()));
  Json body = Json::Object();
  body.Set("error", std::move(err));
  return body;
}

Json QueryResultToJson(const exec::QueryResult& result) {
  Json body = Json::Object();
  body.Set("grouped", Json::Bool(result.grouped));
  // The fact-table epoch the answer was computed (or replayed) at, so
  // clients of a live table can tell which version of the data they saw.
  body.Set("epoch", Json::Number(static_cast<double>(result.epoch)));
  if (result.grouped) {
    Json groups = Json::Array();
    for (const auto& [key, value] : result.groups) {
      Json row = Json::Object();
      row.Set("key", Json::Str(key));
      row.Set("value", Json::Number(value));
      groups.Append(std::move(row));
    }
    body.Set("groups", std::move(groups));
    body.Set("total", Json::Number(result.Total()));
  } else {
    body.Set("scalar", Json::Number(result.scalar));
  }
  return body;
}

Json ServiceStatsToJson(const service::ServiceStats& stats) {
  Json body = Json::Object();
  body.Set("submitted", Json::Number(static_cast<double>(stats.submitted)));
  body.Set("completed", Json::Number(static_cast<double>(stats.completed)));
  body.Set("failed", Json::Number(static_cast<double>(stats.failed)));
  body.Set("rejected_budget",
           Json::Number(static_cast<double>(stats.rejected_budget)));
  body.Set("rejected_overload",
           Json::Number(static_cast<double>(stats.rejected_overload)));
  body.Set("rejected_tenant_limited",
           Json::Number(static_cast<double>(stats.rejected_tenant_limited)));
  body.Set("tenant_rate_limited",
           Json::Number(static_cast<double>(stats.tenant_rate_limited)));
  body.Set("tenant_capped",
           Json::Number(static_cast<double>(stats.tenant_capped)));
  body.Set("workload_batches",
           Json::Number(static_cast<double>(stats.workload_batches)));
  body.Set("workload_queries_fresh",
           Json::Number(static_cast<double>(stats.workload_queries_fresh)));
  body.Set("workload_queries_cached",
           Json::Number(static_cast<double>(stats.workload_queries_cached)));
  body.Set("workload_queries_failed",
           Json::Number(static_cast<double>(stats.workload_queries_failed)));
  body.Set("workload_cache_skips",
           Json::Number(static_cast<double>(stats.workload_cache_skips)));
  body.Set("ingest_batches",
           Json::Number(static_cast<double>(stats.ingest_batches)));
  body.Set("ingest_rows", Json::Number(static_cast<double>(stats.ingest_rows)));

  Json cache = Json::Object();
  cache.Set("hits", Json::Number(static_cast<double>(stats.cache.hits)));
  cache.Set("misses", Json::Number(static_cast<double>(stats.cache.misses)));
  cache.Set("insertions",
            Json::Number(static_cast<double>(stats.cache.insertions)));
  cache.Set("evictions", Json::Number(static_cast<double>(stats.cache.evictions)));
  cache.Set("epsilon_saved", Json::Number(stats.cache.epsilon_saved));
  cache.Set("hit_rate", Json::Number(stats.cache.HitRate()));
  body.Set("answer_cache", std::move(cache));

  Json plans = Json::Object();
  plans.Set("hits", Json::Number(static_cast<double>(stats.plan_cache.hits)));
  plans.Set("misses", Json::Number(static_cast<double>(stats.plan_cache.misses)));
  plans.Set("extends",
            Json::Number(static_cast<double>(stats.plan_cache.extends)));
  plans.Set("invalidations",
            Json::Number(static_cast<double>(stats.plan_cache.invalidations)));
  plans.Set("invalidated_append", Json::Number(static_cast<double>(
                                      stats.plan_cache.invalidated_append)));
  plans.Set("invalidated_identity", Json::Number(static_cast<double>(
                                        stats.plan_cache.invalidated_identity)));
  plans.Set("evictions",
            Json::Number(static_cast<double>(stats.plan_cache.evictions)));
  plans.Set("column_builds",
            Json::Number(static_cast<double>(stats.plan_cache.column_builds)));
  plans.Set("column_reuses",
            Json::Number(static_cast<double>(stats.plan_cache.column_reuses)));
  plans.Set("column_copies",
            Json::Number(static_cast<double>(stats.plan_cache.column_copies)));
  plans.Set("cell_builds",
            Json::Number(static_cast<double>(stats.plan_cache.cell_builds)));
  plans.Set("cell_declines",
            Json::Number(static_cast<double>(stats.plan_cache.cell_declines)));
  plans.Set("hit_rate", Json::Number(stats.plan_cache.HitRate()));
  body.Set("plan_cache", std::move(plans));
  return body;
}

Router MakeServiceRouter(service::QueryService* service, ApiOptions options) {
  DPSTARJ_CHECK(service != nullptr, "service must not be null");
  auto api = std::make_shared<ApiTelemetry>(
      service->metrics(), "dpstarj_query_duration_seconds",
      "End-to-end /v1/query latency by outcome");
  auto workload_api = std::make_shared<ApiTelemetry>(
      service->metrics(), "dpstarj_workload_duration_seconds",
      "End-to-end /v1/workload latency by outcome");
  auto ingest_api = std::make_shared<ApiTelemetry>(
      service->metrics(), "dpstarj_ingest_api_duration_seconds",
      "End-to-end /v1/ingest latency by outcome");
  // Anchor the uptime clock at router construction (≈ process start), and
  // publish the static build identity once — the labels carry the values, the
  // gauge itself is the conventional constant 1.
  common::ProcessUptimeSeconds();
  {
    const common::BuildInfo& build = common::GetBuildInfo();
    service->metrics()
        ->GetGauge("dpstarj_build_info",
                   "Build identity; the value is always 1, the labels carry "
                   "the information",
                   {{"isa", exec::kernels::ActiveKernels().name},
                    {"compiler", build.compiler},
                    {"build_type", build.build_type}})
        ->Set(1.0);
  }
  obs::Counter* profile_ok = service->metrics()->GetCounter(
      "dpstarj_profile_captures_total", "Profile captures by outcome",
      {{"outcome", "ok"}});
  obs::Counter* profile_rejected = service->metrics()->GetCounter(
      "dpstarj_profile_captures_total", "Profile captures by outcome",
      {{"outcome", "rejected"}});
  obs::Counter* profile_samples = service->metrics()->GetCounter(
      "dpstarj_profile_samples_total",
      "Stack samples aggregated across all profile captures");
  Router router;

  router.Handle("GET", "/healthz", [](const HttpRequest&) {
    return HttpResponse::MakeJson(200, "{\"status\":\"ok\"}");
  });

  router.Handle("GET", "/v1/stats", [service](const HttpRequest&) {
    Json body = ServiceStatsToJson(service->Stats());
    // Runtime identity: which kernel table dispatch picked, how stage
    // counters are being sourced, and how long the process has been up.
    body.Set("kernel_isa", Json::Str(exec::kernels::ActiveKernels().name));
    body.Set("profiler_mode",
             Json::Str(obs::prof::CounterModeName(obs::prof::ActiveCounterMode())));
    body.Set("uptime_seconds", Json::Number(common::ProcessUptimeSeconds()));
    return JsonResponse(200, body);
  });

  router.Handle("GET", "/metrics", [service](const HttpRequest&) {
    obs::MetricsRegistry* reg = service->metrics();
    // Scrape-time gauges: state that lives behind its own locks/atomics is
    // mirrored into the registry here, so the page is current without adding
    // a second counter to the hot path.
    for (const service::TenantAccount& acct : service->ledger().Snapshot()) {
      reg->GetGauge("dpstarj_tenant_epsilon_total",
                    "Tenant lifetime privacy budget", {{"tenant", acct.tenant}})
          ->Set(acct.total);
      reg->GetGauge("dpstarj_tenant_epsilon_spent",
                    "Privacy budget spent so far", {{"tenant", acct.tenant}})
          ->Set(acct.spent);
      reg->GetGauge("dpstarj_tenant_epsilon_remaining",
                    "Privacy budget still available", {{"tenant", acct.tenant}})
          ->Set(acct.remaining);
    }
    reg->GetGauge("dpstarj_queue_depth", "Jobs waiting in the engine pool queue")
        ->Set(static_cast<double>(service->queue_depth()));
    const service::ServiceStats stats = service->Stats();
    reg->GetGauge("dpstarj_answer_cache_hit_ratio",
                  "Answer-cache hits / lookups")
        ->Set(stats.cache.HitRate());
    reg->GetGauge("dpstarj_answer_cache_epsilon_saved",
                  "Total privacy budget saved by cache replays")
        ->Set(stats.cache.epsilon_saved);
    reg->GetGauge("dpstarj_plan_cache_hit_ratio", "Plan-cache hits / lookups")
        ->Set(stats.plan_cache.HitRate());
    reg->GetGauge("dpstarj_plan_extends",
                  "Append-stale cached plans revalidated by incremental "
                  "tail extension instead of a recompile")
        ->Set(static_cast<double>(stats.plan_cache.extends));
    reg->GetGauge("dpstarj_plan_column_builds",
                  "Fact-sized join and weight columns built for plans, from "
                  "scratch or over an extended plan's old column")
        ->Set(static_cast<double>(stats.plan_cache.column_builds));
    reg->GetGauge("dpstarj_plan_column_reuses",
                  "Join and weight column requests served by a live column "
                  "another plan already holds")
        ->Set(static_cast<double>(stats.plan_cache.column_reuses));
    reg->GetGauge("dpstarj_plan_column_copies",
                  "Join and weight column extensions that copied the "
                  "column instead of appending in place (once per capacity "
                  "doubling while extensions keep up with ingest)")
        ->Set(static_cast<double>(stats.plan_cache.column_copies));
    reg->GetGauge("dpstarj_plan_cell_builds",
                  "Cell layouts built for plans at their first validated hit")
        ->Set(static_cast<double>(stats.plan_cache.cell_builds));
    reg->GetGauge("dpstarj_plan_cell_declines",
                  "Plans kept on the fact-row layout at their first validated "
                  "hit because their dense cell index exceeds half their "
                  "fact rows")
        ->Set(static_cast<double>(stats.plan_cache.cell_declines));
    reg->GetGauge("dpstarj_plan_recompiles",
                  "Plan-cache lookups that compiled a fresh plan")
        ->Set(static_cast<double>(stats.plan_cache.misses));
    reg->GetGauge("dpstarj_admission_rate_limited",
                  "Lifetime submissions refused by tenant token buckets")
        ->Set(static_cast<double>(stats.tenant_rate_limited));
    reg->GetGauge("dpstarj_admission_capped",
                  "Lifetime submissions refused by tenant in-flight caps")
        ->Set(static_cast<double>(stats.tenant_capped));
    reg->GetGauge("dpstarj_process_uptime_seconds",
                  "Seconds since process start")
        ->Set(common::ProcessUptimeSeconds());
    {
      const auto engine = service->worker_stats();
      for (size_t i = 0; i < engine.size(); ++i) {
        ExportWorkerGauges(reg, "engine", i, engine[i].busy_ns, engine[i].jobs);
      }
      const auto morsel = exec::MorselPool::Shared().worker_stats();
      for (size_t i = 0; i < morsel.size(); ++i) {
        ExportWorkerGauges(reg, "morsel", i, morsel[i].busy_ns, morsel[i].roles);
      }
    }
    HttpResponse resp;
    resp.status = 200;
    resp.body = reg->RenderPrometheus();
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return resp;
  });

  router.Handle("GET", "/v1/trace/stats", [service](const HttpRequest&) {
    obs::MetricsRegistry* reg = service->metrics();
    // Distills each histogram family into {child-label: count/mean/quantiles}.
    auto render_family = [reg](const std::string& family,
                               const std::string& label_key) {
      Json out = Json::Object();
      for (const auto& [labels, hist] : reg->HistogramChildren(family)) {
        std::string key;
        for (const auto& [k, v] : labels) {
          if (k == label_key) key = v;
        }
        if (key.empty()) continue;
        obs::HistogramSnapshot snap = hist->Snapshot();
        Json entry = Json::Object();
        entry.Set("count", Json::Number(static_cast<double>(snap.count)));
        entry.Set("mean_seconds", Json::Number(snap.Mean()));
        entry.Set("p50_seconds", Json::Number(snap.Quantile(0.50)));
        entry.Set("p90_seconds", Json::Number(snap.Quantile(0.90)));
        entry.Set("p99_seconds", Json::Number(snap.Quantile(0.99)));
        out.Set(key, std::move(entry));
      }
      return out;
    };
    // The per-stage hardware-counter totals, folded from finished traces by
    // StageMetrics. All-zero hardware series with profiler_mode ==
    // "thread_cputime" means "no PMU access", not "no cycles burned".
    Json counters = Json::Object();
    for (int s = 0; s < obs::kStageCount; ++s) {
      const char* stage = obs::StageName(static_cast<obs::Stage>(s));
      const obs::Labels labels = {{"stage", stage}};
      auto value = [reg, &labels](const char* family) -> double {
        const obs::Counter* c = reg->FindCounter(family, labels);
        return c == nullptr ? 0.0 : static_cast<double>(c->Value());
      };
      Json entry = Json::Object();
      entry.Set("cycles", Json::Number(value("dpstarj_stage_cycles_total")));
      entry.Set("instructions",
                Json::Number(value("dpstarj_stage_instructions_total")));
      entry.Set("llc_misses",
                Json::Number(value("dpstarj_stage_llc_misses_total")));
      entry.Set("branch_misses",
                Json::Number(value("dpstarj_stage_branch_misses_total")));
      entry.Set("task_clock_ns",
                Json::Number(value("dpstarj_stage_task_clock_ns_total")));
      counters.Set(stage, std::move(entry));
    }
    Json body = Json::Object();
    body.Set("stages", render_family("dpstarj_stage_duration_seconds", "stage"));
    body.Set("query", render_family("dpstarj_query_duration_seconds", "outcome"));
    body.Set("stage_counters", std::move(counters));
    body.Set("profiler_mode",
             Json::Str(obs::prof::CounterModeName(obs::prof::ActiveCounterMode())));
    return JsonResponse(200, body);
  });

  router.Handle("GET", "/v1/profile",
                [profile_ok, profile_rejected,
                 profile_samples](const HttpRequest& req) {
    // Defaults: a 1-second window at 99 Hz — enough for a quick look, prime
    // so the sampling does not alias against millisecond-periodic work.
    double seconds = 1.0;
    double hz = 99.0;
    const std::string seconds_text = QueryParam(req.query, "seconds");
    if (!seconds_text.empty() && !ParseFullDouble(seconds_text, &seconds)) {
      profile_rejected->Inc();
      return ErrorResponse(Status::InvalidArgument("seconds must be a number"));
    }
    const std::string hz_text = QueryParam(req.query, "hz");
    if (!hz_text.empty() &&
        (!ParseFullDouble(hz_text, &hz) || hz != std::floor(hz))) {
      profile_rejected->Inc();
      return ErrorResponse(Status::InvalidArgument("hz must be an integer"));
    }
    if (hz < 1.0 || hz > 1000.0) {
      // Range-check before the int cast (attacker-supplied value).
      profile_rejected->Inc();
      return ErrorResponse(Status::InvalidArgument("hz must be in [1, 1000]"));
    }
    // Blocks this handler thread for the capture window; the sampler rejects
    // a second concurrent capture with AlreadyExists → 409, so at most one
    // handler thread is ever parked here.
    auto profile =
        obs::prof::Sampler::Global().Run(seconds, static_cast<int>(hz));
    if (!profile.ok()) {
      profile_rejected->Inc();
      return ErrorResponse(profile.status());
    }
    profile_ok->Inc();
    profile_samples->Inc(profile->samples);
    HttpResponse resp;
    resp.status = 200;
    resp.body = std::move(profile->folded);
    resp.content_type = "text/plain; charset=utf-8";
    resp.headers.push_back(
        {"X-DPStarJ-Profile-Samples", Format("%llu", static_cast<unsigned long long>(
                                                         profile->samples))});
    resp.headers.push_back(
        {"X-DPStarJ-Profile-Dropped", Format("%llu", static_cast<unsigned long long>(
                                                         profile->dropped))});
    return resp;
  });

  router.Handle("POST", "/v1/tenants", [service](const HttpRequest& req) {
    auto body = Json::Parse(req.body);
    if (!body.ok()) return ErrorResponse(body.status());
    if (!body->is_object()) {
      return ErrorResponse(Status::InvalidArgument("body must be a JSON object"));
    }
    auto tenant = body->GetString("tenant");
    if (!tenant.ok()) return ErrorResponse(tenant.status());
    auto epsilon = body->GetNumber("epsilon");
    if (!epsilon.ok()) return ErrorResponse(epsilon.status());
    // Optional per-tenant admission overrides; absent fields keep the
    // service defaults, explicit zeros disable that knob for the tenant.
    service::TenantLimits limits = service->admission().LimitsFor(*tenant);
    bool has_limits = false;
    if (body->Find("rate_qps") != nullptr) {
      auto rate = body->GetNumber("rate_qps");
      if (!rate.ok()) return ErrorResponse(rate.status());
      if (!std::isfinite(*rate) || *rate < 0.0) {
        return ErrorResponse(
            Status::InvalidArgument("rate_qps must be finite and >= 0"));
      }
      limits.rate_qps = *rate;
      has_limits = true;
    }
    if (body->Find("burst") != nullptr) {
      auto burst = body->GetNumber("burst");
      if (!burst.ok()) return ErrorResponse(burst.status());
      if (!std::isfinite(*burst) || *burst < 0.0) {
        return ErrorResponse(
            Status::InvalidArgument("burst must be finite and >= 0"));
      }
      limits.burst = *burst;
      has_limits = true;
    }
    if (body->Find("max_in_flight") != nullptr) {
      auto cap = body->GetNumber("max_in_flight");
      if (!cap.ok()) return ErrorResponse(cap.status());
      // Range-check BEFORE any int conversion: this value is attacker-
      // supplied, and static_cast of an out-of-int-range double is UB.
      if (!std::isfinite(*cap) || *cap < 0.0 || *cap > 1e9 ||
          *cap != std::floor(*cap)) {
        return ErrorResponse(Status::InvalidArgument(
            "max_in_flight must be an integer in [0, 1e9]"));
      }
      limits.max_in_flight = static_cast<int>(*cap);
      has_limits = true;
    }
    // Validate the overrides before registering, so a bad request leaves no
    // half-registered tenant behind.
    Status st = service->RegisterTenant(*tenant, *epsilon);
    double total = *epsilon;
    int http_status = 201;
    if (!st.ok()) {
      // Budgets are append-only — an existing tenant cannot re-register and
      // `epsilon` is never re-minted. But a request carrying admission
      // overrides is an operator throttling a LIVE tenant; refusing it with
      // 409 (and silently dropping the limits) would leave no wire path to
      // contain an abusive tenant after registration. Apply the limits to
      // the existing account and answer 200.
      if (st.code() != StatusCode::kAlreadyExists || !has_limits) {
        return ErrorResponse(st);
      }
      auto account = service->ledger().Account(*tenant);
      if (!account.ok()) return ErrorResponse(account.status());
      total = account->total;  // the budget stays what it was
      http_status = 200;
    }
    if (has_limits) service->SetTenantLimits(*tenant, limits);
    Json out = Json::Object();
    out.Set("tenant", Json::Str(*tenant));
    out.Set("total", Json::Number(total));
    if (has_limits) {
      out.Set("rate_qps", Json::Number(limits.rate_qps));
      out.Set("burst", Json::Number(limits.burst));
      out.Set("max_in_flight",
              Json::Number(static_cast<double>(limits.max_in_flight)));
    }
    return JsonResponse(http_status, out);
  });

  router.Handle("GET", "/v1/tenants/<tenant>", [service](const HttpRequest& req) {
    const std::string& tenant = req.path_params.at("tenant");
    auto account = service->ledger().Account(tenant);
    if (!account.ok()) return ErrorResponse(account.status());
    Json out = Json::Object();
    out.Set("tenant", Json::Str(account->tenant));
    out.Set("total", Json::Number(account->total));
    out.Set("spent", Json::Number(account->spent));
    out.Set("remaining", Json::Number(account->remaining));
    out.Set("spends", Json::Number(static_cast<double>(account->spends)));
    out.Set("refunds", Json::Number(static_cast<double>(account->refunds)));
    out.Set("budget_refusals",
            Json::Number(static_cast<double>(account->refusals)));
    // The fair-admission side of the account (its own lock, so a snapshot
    // consistent per source, not across the two).
    service::TenantAdmissionStats admission =
        service->admission().TenantStats(tenant);
    Json adm = Json::Object();
    adm.Set("admitted", Json::Number(static_cast<double>(admission.admitted)));
    adm.Set("rate_limited",
            Json::Number(static_cast<double>(admission.rate_limited)));
    adm.Set("capped", Json::Number(static_cast<double>(admission.capped)));
    adm.Set("in_flight", Json::Number(static_cast<double>(admission.in_flight)));
    out.Set("admission", std::move(adm));
    return JsonResponse(200, out);
  });

  router.Handle("POST", "/v1/query",
                [service, options, api](const HttpRequest& req) {
    // One trace per query request, alive until the server has written the
    // access-log line (the response holds the owning reference). The server-
    // measured socket-read times become its first two stages.
    auto trace = std::make_shared<obs::Trace>();
    trace->Record(obs::Stage::kHeaderRead, req.header_read_us * 1000);
    trace->Record(obs::Stage::kBodyRead, req.body_read_us * 1000);
    auto fail = [&](const Status& st, std::string tenant = "") {
      return FinishTraced(api.get(), trace, std::move(tenant),
                          ErrorResponse(st));
    };
    std::string sql, tenant;
    double epsilon = 0.0;
    const Status decoded = [&]() -> Status {
      obs::ScopedStage decode(trace.get(), obs::Stage::kDecode);
      DPSTARJ_ASSIGN_OR_RETURN(Json body, Json::Parse(req.body));
      if (!body.is_object()) {
        return Status::InvalidArgument("body must be a JSON object");
      }
      DPSTARJ_ASSIGN_OR_RETURN(sql, body.GetString("sql"));
      DPSTARJ_ASSIGN_OR_RETURN(epsilon, body.GetNumber("epsilon"));
      DPSTARJ_ASSIGN_OR_RETURN(tenant, body.GetString("tenant"));
      return Status::OK();
    }();
    if (!decoded.ok()) return fail(decoded);

    // Non-blocking admission: a full work queue answers 429 immediately —
    // the handler thread must not park on the pool's backpressure while the
    // client holds a connection open. The trace pointer stays valid for the
    // worker because this thread holds the shared_ptr across .get().
    auto answer = service->TrySubmit(sql, epsilon, tenant, trace.get()).get();
    if (!answer.ok()) {
      HttpResponse resp = ErrorResponse(answer.status());
      AttachRetryAfter(service, options, answer.status(), tenant, &resp);
      return FinishTraced(api.get(), trace, tenant, std::move(resp));
    }
    HttpResponse resp = [&] {
      obs::ScopedStage encode(trace.get(), obs::Stage::kEncode);
      return JsonResponse(200, QueryResultToJson(*answer));
    }();
    return FinishTraced(api.get(), trace, tenant, std::move(resp));
  });

  router.Handle("POST", "/v1/workload",
                [service, options, workload_api](const HttpRequest& req) {
    auto trace = std::make_shared<obs::Trace>();
    trace->Record(obs::Stage::kHeaderRead, req.header_read_us * 1000);
    trace->Record(obs::Stage::kBodyRead, req.body_read_us * 1000);
    auto fail = [&](const Status& st, std::string tenant = "") {
      return FinishTraced(workload_api.get(), trace, std::move(tenant),
                          ErrorResponse(st));
    };
    std::string tenant;  // set once decoded: later failures carry it
    std::vector<service::WorkloadQuerySpec> specs;
    const Status decoded = [&]() -> Status {
      obs::ScopedStage decode(trace.get(), obs::Stage::kDecode);
      DPSTARJ_ASSIGN_OR_RETURN(Json body, Json::Parse(req.body));
      if (!body.is_object()) {
        return Status::InvalidArgument("body must be a JSON object");
      }
      DPSTARJ_ASSIGN_OR_RETURN(tenant, body.GetString("tenant"));
      const Json* queries = body.Find("queries");
      if (queries == nullptr || !queries->is_array()) {
        return Status::InvalidArgument("'queries' must be a non-empty array");
      }
      specs.reserve(queries->items().size());
      for (const Json& q : queries->items()) {
        if (!q.is_object()) {
          return Status::InvalidArgument(
              "each workload query must be a JSON object");
        }
        DPSTARJ_ASSIGN_OR_RETURN(std::string sql, q.GetString("sql"));
        DPSTARJ_ASSIGN_OR_RETURN(double epsilon, q.GetNumber("epsilon"));
        specs.push_back({std::move(sql), epsilon});
      }
      return Status::OK();
    }();
    if (!decoded.ok()) return fail(decoded, tenant);
    // One admission + one ledger decision for the whole batch, one pool job.
    // Batch-level refusals (tenant-limited, budget, overload) answer like
    // /v1/query's; per-query failures land in the 200 body's per-query
    // entries instead.
    auto outcome = service->SubmitWorkload(specs, tenant, trace.get()).get();
    if (!outcome.ok()) {
      HttpResponse resp = ErrorResponse(outcome.status());
      AttachRetryAfter(service, options, outcome.status(), tenant, &resp);
      return FinishTraced(workload_api.get(), trace, tenant, std::move(resp));
    }
    HttpResponse resp = [&] {
      obs::ScopedStage encode(trace.get(), obs::Stage::kEncode);
      Json out = Json::Object();
      out.Set("tenant", Json::Str(tenant));
      Json results = Json::Array();
      for (const service::WorkloadQueryOutcome& qo : outcome->queries) {
        if (qo.status.ok()) {
          Json entry = QueryResultToJson(qo.result);
          entry.Set("ok", Json::Bool(true));
          entry.Set("cached", Json::Bool(qo.cached));
          results.Append(std::move(entry));
        } else {
          Json entry = ErrorToJson(qo.status);
          entry.Set("ok", Json::Bool(false));
          results.Append(std::move(entry));
        }
      }
      out.Set("queries", std::move(results));
      Json ex = Json::Object();
      ex.Set("queries",
             Json::Number(static_cast<double>(outcome->exec.queries)));
      ex.Set("scans", Json::Number(static_cast<double>(outcome->exec.scans)));
      ex.Set("cell_sweeps",
             Json::Number(static_cast<double>(outcome->exec.cell_sweeps)));
      ex.Set("predicate_nodes",
             Json::Number(static_cast<double>(outcome->exec.predicate_nodes)));
      out.Set("exec", std::move(ex));
      // The batch's accumulated stage spans so far (the encode stage is
      // still open and reports its pre-encode value).
      Json stages = Json::Object();
      for (int s = 0; s < obs::kStageCount; ++s) {
        const auto stage = static_cast<obs::Stage>(s);
        if (!trace->touched(stage)) continue;
        stages.Set(obs::StageName(stage),
                   Json::Number(static_cast<double>(trace->stage_us(stage))));
      }
      out.Set("stage_us", std::move(stages));
      return JsonResponse(200, out);
    }();
    return FinishTraced(workload_api.get(), trace, tenant, std::move(resp));
  });

  router.Handle("POST", "/v1/ingest",
                [service, ingest_api](const HttpRequest& req) {
    auto trace = std::make_shared<obs::Trace>();
    trace->Record(obs::Stage::kHeaderRead, req.header_read_us * 1000);
    trace->Record(obs::Stage::kBodyRead, req.body_read_us * 1000);
    // Ingest carries no tenant — rows are the dataset, not a privacy spend;
    // the access-log tenant field stays empty like the ops endpoints'.
    auto fail = [&](const Status& st) {
      return FinishTraced(ingest_api.get(), trace, "", ErrorResponse(st));
    };
    std::string table;
    std::vector<std::vector<storage::Value>> rows;
    const Status decoded = [&] {
      obs::ScopedStage decode(trace.get(), obs::Stage::kDecode);
      return DecodeIngestBody(req.body, &table, &rows);
    }();
    if (!decoded.ok()) return fail(decoded);
    auto outcome = service->Ingest(table, rows, trace.get());
    if (!outcome.ok()) return fail(outcome.status());
    HttpResponse resp = [&] {
      obs::ScopedStage encode(trace.get(), obs::Stage::kEncode);
      Json out = Json::Object();
      out.Set("table", Json::Str(table));
      out.Set("appended",
              Json::Number(static_cast<double>(outcome->appended)));
      out.Set("rows_total",
              Json::Number(static_cast<double>(outcome->rows_total)));
      out.Set("version",
              Json::Number(static_cast<double>(outcome->version)));
      return JsonResponse(200, out);
    }();
    return FinishTraced(ingest_api.get(), trace, "", std::move(resp));
  });

  return router;
}

}  // namespace dpstarj::net
