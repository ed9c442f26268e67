// The system under test — an SSB catalog, a QueryService and its HttpServer
// on a loopback ephemeral port — plus the client-side request/response checks
// every perfbench pass shares.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/client.h"
#include "net/http_server.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "storage/catalog.h"
#include "workloads.h"

namespace perfbench {

/// One served stack. Configuration is the same for every workload: 2
/// engines, 2 handler threads, one scan thread per engine, a seeded engine
/// RNG, and no tenant limits.
class Stack {
 public:
  /// Generates the catalog, starts the service and its HTTP server, and
  /// registers the benchmark tenant.
  static dpstarj::Result<std::unique_ptr<Stack>> Start(const Workload& workload);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Stops the server and drains the service; idempotent.
  void Stop();

  dpstarj::storage::Catalog& catalog() { return *catalog_; }
  dpstarj::service::QueryService& service() { return *service_; }
  dpstarj::net::HttpServer& server() { return *server_; }

 private:
  Stack() = default;

  std::unique_ptr<dpstarj::storage::Catalog> catalog_;
  std::shared_ptr<dpstarj::obs::MetricsRegistry> metrics_;
  std::unique_ptr<dpstarj::service::QueryService> service_;
  std::unique_ptr<dpstarj::net::HttpServer> server_;
};

/// The answer one query of an op received.
struct Answer {
  uint64_t op_index = 0;
  int query = 0;          ///< position within the op
  double value = 0.0;     ///< scalar, or the total of a grouped answer
  uint64_t epoch = 0;
};

/// The verdict on one response.
struct Checked {
  bool ok = false;
  std::string error;            ///< why not ok
  std::vector<Answer> answers;  ///< one per query (query/workload ops)
  double fresh_epsilon = 0.0;   ///< Σ ε of the answers (all drawn fresh)
};

/// Checks status and body shape of `op`'s response against the workload
/// model: every answer present, finite, grouped iff the query groups, at the
/// expected epoch; workload entries ok and never replayed from the answer
/// cache; ingest receipts with the expected row count and version.
Checked CheckResponse(const Op& op, int status, const std::string& body);

/// Sends `op` on `client`, retrying 429s (counted in `*retries`, never
/// timed). Returns the final response; `*latency_ns` is the successful
/// attempt's send → full-response time.
dpstarj::Result<dpstarj::net::HttpResponse> SendOp(dpstarj::net::Client* client,
                                                   const Op& op, uint64_t* latency_ns,
                                                   uint64_t* retries);

/// The exact counts that must repeat for a given seed.
struct ExactCounts {
  uint64_t answer_hits = 0;
  uint64_t answer_lookups = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_extends = 0;
  uint64_t plan_evictions = 0;
  uint64_t plan_invalidations = 0;
  double epsilon_spent = 0.0;
  int64_t fact_rows = 0;

  bool operator==(const ExactCounts& o) const;
  std::string ToString() const;
};

ExactCounts ReadCounts(Stack& stack);

}  // namespace perfbench
