// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// service_api — the wire protocol of the DP-starJ front door: a Router over
// a service::QueryService. All bodies are JSON. The normative reference —
// every endpoint, schema, and status code — is docs/wire-protocol.md; the
// sketch:
//
//   POST /v1/query          {"sql", "epsilon", "tenant"}
//       200 {"scalar": x} or {"grouped": true, "groups": [{"key","value"},…]}
//       400/403/404/429/…   {"error": {"code", "message"}}; both 429 flavors
//                           carry Retry-After, and the per-tenant one is
//                           marked X-DPStarJ-Tenant-Limited: 1 (see below)
//   POST /v1/workload       {"tenant", "queries": [{"sql","epsilon"},…]} —
//                           one admission + ledger decision for the whole
//                           batch (tokens = query count, ε = total), each
//                           query answered by its own sweep. 200 carries
//                           per-query outcomes (partial failure stays in the
//                           body), the sweep receipts (`exec`) and the
//                           batch's stage timings; batch-level refusals use
//                           /v1/query's status mapping
//   POST /v1/ingest         {"table", "rows": [[cell,…],…]} — appends fact
//                           rows as one atomic batch; cells are numbers or
//                           strings matched against the table schema. 200
//                           {"table","appended","rows_total","version"} with
//                           `version` the table's new mutation epoch: every
//                           answer computed after it is a FRESH DP release
//                           (fresh noise, fresh ε spend), cached plans are
//                           extended in place instead of recompiled. 400 on
//                           malformed rows (all-or-nothing: nothing is
//                           appended), 404 for an unknown table, 413 past
//                           the body cap
//   POST /v1/tenants        {"tenant", "epsilon"[, "rate_qps", "burst",
//                           "max_in_flight"]} → 201 (409 when it exists);
//                           the optional fields override the tenant's fair-
//                           admission limits
//   GET  /v1/tenants/<t>    ledger account (ε position + admission counters)
//                           merged with the tenant's rate/in-flight stats,
//                           one consistent snapshot per source
//   GET  /v1/stats          ServiceStats: query counters + answer-cache and
//                           plan-cache accounting + tenant-limited counters
//   GET  /v1/trace/stats    per-stage latency aggregates (count, mean,
//                           p50/p90/p99 seconds) distilled from the
//                           dpstarj_stage_duration_seconds histograms, plus
//                           the per-outcome query-duration aggregates
//   GET  /metrics           Prometheus text exposition (version 0.0.4) of the
//                           process registry; scrape-time gauges (per-tenant ε
//                           position, queue depth, cache hit ratios, worker
//                           busy time, uptime) are refreshed inside the
//                           handler
//   GET  /v1/profile        ?seconds=N&hz=H — blocks for the window, answers
//                           200 text/plain flamegraph-collapsed folded stacks
//                           of wherever the process burned CPU (plus
//                           X-DPStarJ-Profile-Samples/-Dropped headers);
//                           400 on bad parameters, 409 while another capture
//                           is live. Zero cost when not in use.
//   GET  /healthz           {"status":"ok"} — liveness, no service state
//
// Every /v1/query response (success or refusal) carries X-DPStarJ-Trace-Id;
// the same id appears in the server's access log, which holds the request's
// per-stage timings.
//
// Error bodies carry the library StatusCode name as `code`, so clients can
// switch on one vocabulary. Three refusals matter most:
//   BudgetExhausted → 403  a DP verdict; retrying is pointless,
//   Unavailable     → 429  global queue pressure; anyone's retry may succeed,
//   RateLimited     → 429  + X-DPStarJ-Tenant-Limited: 1 — THIS tenant is
//                          over its own rate limit or in-flight cap; only its
//                          own backoff helps, other tenants are unaffected.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/http.h"
#include "net/json.h"
#include "service/query_service.h"
#include "storage/value.h"

namespace dpstarj::net {

/// Marks a 429 as per-tenant (value "1") rather than global queue pressure.
inline constexpr char kTenantLimitedHeader[] = "X-DPStarJ-Tenant-Limited";

/// \brief Protocol tuning.
struct ApiOptions {
  /// Value of the Retry-After header on *overload* (global) 429 responses,
  /// in seconds. Tenant-limited 429s compute their own hint from the
  /// tenant's token bucket.
  int retry_after_seconds = 1;
};

/// The HTTP status the wire protocol maps a library error to.
int HttpStatusForError(const Status& status);

/// Renders a non-OK Status as the protocol's error body.
Json ErrorToJson(const Status& status);

/// Renders a noisy answer as the protocol's result body.
Json QueryResultToJson(const exec::QueryResult& result);

/// Renders the service counters (incl. answer/plan-cache) for /v1/stats.
Json ServiceStatsToJson(const service::ServiceStats& stats);

/// \brief Decodes a /v1/ingest body into the table name and the rows that
/// QueryService::Ingest takes, reading it with JsonReader and building no
/// DOM. A number cell becomes an int64 when it is integral and |v| <= 2^53
/// (key and int64 columns must not arrive as lossy doubles), otherwise a
/// double; a string cell becomes a string. The last `table` and the last
/// `rows` member win; other members are validated and ignored. The first
/// error, in this order: a syntax error anywhere in the body, a body that is
/// not an object, a missing or non-string `table`, a `rows` that is not an
/// array, then the first row that is not an array or cell that is neither a
/// number nor a string, in document order.
Status DecodeIngestBody(std::string_view body, std::string* table,
                        std::vector<std::vector<storage::Value>>* rows);

/// \brief Builds the routing table over `service` (which must outlive the
/// returned Router and any server running it). The telemetry endpoints and
/// the per-request histograms live in service->metrics() — pass the same
/// registry to ServerOptions::metrics so the HTTP layer's counters land on
/// the same /metrics page.
Router MakeServiceRouter(service::QueryService* service, ApiOptions options = {});

}  // namespace dpstarj::net
