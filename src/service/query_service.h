// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// QueryService — the concurrent, multi-tenant front door of DP-starJ. It ties
// together the three service components:
//
//   EnginePool    N worker threads, each with its own DpStarJoin engine and
//                 RNG stream, fed by a bounded MPMC queue (backpressure);
//   BudgetLedger  per-tenant ε accounting with atomic spend/refund — a query
//                 is admitted by spending its ε up front, and the ε flows back
//                 on bind failure or cache replay;
//   AnswerCache   canonicalized-query → noisy-answer LRU: repeated queries
//                 replay the stored noisy result at zero additional ε
//                 (post-processing closure of DP).
//
// Typical use:
//   service::ServiceOptions opts;
//   opts.num_engines = 8;
//   service::QueryService svc(&catalog, opts);
//   svc.RegisterTenant("analytics", /*total_epsilon=*/2.0);
//   auto future = svc.Submit(sql, /*epsilon=*/0.1, "analytics");
//   ... // other submissions, from any thread
//   Result<exec::QueryResult> r = future.get();

#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/dp_star_join.h"
#include "exec/plan_cache.h"
#include "exec/query_result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/admission.h"
#include "service/answer_cache.h"
#include "service/budget_ledger.h"
#include "service/engine_pool.h"
#include "storage/catalog.h"

namespace dpstarj::service {

/// \brief Configuration of the query service.
struct ServiceOptions {
  /// Worker threads == engines in the pool.
  int num_engines = 4;
  /// Bound of the work queue; Submit blocks when this many queries are
  /// waiting (admission backpressure).
  size_t queue_capacity = 256;
  /// Entries in the noisy-answer cache; 0 disables replay.
  size_t cache_capacity = 4096;
  /// When set, unknown tenants are auto-registered with this total ε on their
  /// first query; otherwise unregistered tenants are refused (NotFound).
  std::optional<double> default_tenant_budget;
  /// Scan threads each pool engine's executor may use for a single query.
  /// 0 (default) = auto: divide the hardware threads across the pool
  /// (max(1, hardware / num_engines)), so executor-level and pool-level
  /// parallelism compose by splitting the cores instead of oversubscribing
  /// them. Explicit values are clamped to the same bound. The resolved value
  /// overrides `engine.executor.exec_threads`.
  int exec_threads_per_engine = 0;
  /// Entries in the shared compiled-plan cache (see exec/plan_cache.h). All
  /// pool engines share one cache, so whichever engine first answers a query
  /// compiles its ScanPlan and every engine's later noisy executions of that
  /// query (fresh ε spends included — plans are ε-independent scaffolding)
  /// only rebuild predicate bitmaps. 0 disables plan caching.
  size_t plan_cache_capacity = exec::PlanCache::kDefaultCapacity;
  /// Engine configuration (seed, PMA tunables, workload strategy, executor
  /// tuning). The `total_budget` field is ignored — budgets belong to the
  /// ledger — `executor.exec_threads` is overridden as described above, and
  /// `plan_cache` (when null) is replaced by the service's shared cache.
  core::DpStarJoinOptions engine;
  /// Per-tenant fair admission: default token-bucket rate limits and
  /// in-flight caps (zeros disable each knob), overridable per tenant via
  /// SetTenantLimits. See service/admission.h.
  AdmissionOptions admission;
  /// Metrics registry the service's lifecycle counters live in. Pass the
  /// process-wide registry so the HTTP layer's /metrics endpoint exposes the
  /// service series alongside its own; when null the service creates a
  /// private one (reachable via metrics()).
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// \brief Aggregate service counters, as returned by Stats().
///
/// Stats() reads these from the service's MetricsRegistry counters, so this
/// snapshot and a /metrics scrape can never disagree (docs/operations.md
/// documents the field ↔ series mapping).
struct ServiceStats {
  /// Queries that reached a pool worker. Counted as the job's first action
  /// (not at enqueue) so the counter is monotonic — a refused dispatch never
  /// has to roll it back — while still never trailing `completed`.
  uint64_t submitted = 0;
  uint64_t completed = 0;         ///< answered (fresh or replayed)
  uint64_t failed = 0;            ///< admitted but failed (ε refunded)
  uint64_t rejected_budget = 0;   ///< refused at admission (ledger)
  uint64_t rejected_overload = 0; ///< TrySubmit refused on a full queue (429s)
  /// Refused by the tenant's own rate limit or in-flight cap (tenant-limited
  /// 429s — distinct from the global-overload rejected_overload).
  uint64_t rejected_tenant_limited = 0;
  uint64_t tenant_rate_limited = 0;  ///< ...of which: drained token bucket
  uint64_t tenant_capped = 0;        ///< ...of which: in-flight cap
  /// Workload batches that reached a pool worker (one per SubmitWorkload
  /// that dispatched; its queries also count into `submitted`).
  uint64_t workload_batches = 0;
  uint64_t workload_queries_fresh = 0;   ///< answered by the engine
  uint64_t workload_queries_cached = 0;  ///< replayed from the answer cache
  uint64_t workload_queries_failed = 0;  ///< per-query failures (ε refunded)
  /// Cache-hit queries peeled off before the engine answers the batch
  /// (same value as workload_queries_cached; kept as its own series so the
  /// pre-pass is directly observable).
  uint64_t workload_cache_skips = 0;
  /// Ingest batches accepted (one table-epoch bump each).
  uint64_t ingest_batches = 0;
  /// Fact rows appended across all accepted ingest batches.
  uint64_t ingest_rows = 0;
  AnswerCache::Stats cache;       ///< hit/miss/ε-saved accounting
  exec::PlanCache::Stats plan_cache;  ///< compiled-plan reuse accounting

  /// Human-readable one-stop summary.
  std::string ToString() const;
};

/// \brief One query of a workload batch submission.
struct WorkloadQuerySpec {
  std::string sql;
  double epsilon = 0.0;
};

/// \brief Outcome of one workload query. `status` is OK when `result` holds
/// the (noisy) answer; otherwise it carries that query's failure and the
/// query's ε was refunded. `cached` marks answers replayed from the answer
/// cache (also ε-refunded — replay is free under DP).
struct WorkloadQueryOutcome {
  Status status = Status::OK();
  exec::QueryResult result;
  bool cached = false;
};

/// \brief Result of one SubmitWorkload batch: per-query outcomes in
/// submission order, plus the engine's sweep receipts (exec.queries fresh
/// queries executed, exec.scans of them over the fact rows and
/// exec.cell_sweeps over their plan's cells; exec/star_join_executor.h).
struct WorkloadOutcome {
  std::vector<WorkloadQueryOutcome> queries;
  exec::WorkloadExecStats exec;
};

/// \brief Receipt of one accepted ingest batch.
struct IngestOutcome {
  int64_t appended = 0;   ///< rows applied by this batch
  int64_t rows_total = 0; ///< table row count after the batch
  uint64_t version = 0;   ///< table epoch after the batch (bumped once)
};

/// \brief Thread-safe multi-tenant DP query service.
///
/// Lifecycle of one Submit(sql, ε, tenant):
///   0. fair admission — the tenant's token bucket and in-flight cap are
///      checked (refused with RateLimited before any ε is touched; the front
///      door maps it to a tenant-limited 429, distinct from global overload);
///   1. admission — the tenant's ε is spent in the ledger (refused with
///      BudgetExhausted/NotFound before any work is queued; an exhausted
///      tenant still gets cached replays, which cost nothing — a fresh
///      draw is what it can no longer afford);
///   2. a worker binds the SQL against the catalog; a bind failure refunds
///      the ε — the tenant only pays for answers;
///   3. the bound query is canonicalized; a cache hit replays the stored
///      noisy answer and refunds the ε (replay is free under DP);
///   4. a cache miss runs the Predicate Mechanism on the worker's engine and
///      stores the noisy answer for future replays.
///
/// All public methods may be called from any thread.
class QueryService {
 public:
  /// The catalog must outlive the service.
  explicit QueryService(const storage::Catalog* catalog, ServiceOptions options = {});

  /// Drains in-flight queries and stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a tenant with its lifetime privacy budget.
  Status RegisterTenant(const std::string& tenant, double total_epsilon);

  /// \brief Overrides `tenant`'s admission limits (rate, burst, in-flight
  /// cap); zero fields disable that knob for the tenant. Takes effect for the
  /// tenant's next submission.
  void SetTenantLimits(const std::string& tenant, TenantLimits limits);

  /// \brief Asynchronous submission; blocks only when the work queue is full.
  /// The returned future resolves to the noisy answer or the failure status.
  ///
  /// A non-null `trace` records the admission, ledger, queue-wait, bind,
  /// cache-lookup and engine stage spans. The trace must stay alive until the
  /// returned future resolves (the worker writes into it; future.get()
  /// publishes those writes to the caller).
  std::future<Result<exec::QueryResult>> Submit(const std::string& sql,
                                                double epsilon,
                                                const std::string& tenant,
                                                obs::Trace* trace = nullptr);

  /// \brief Non-blocking Submit: identical admission and answer path, but a
  /// full work queue resolves to Unavailable immediately (with the admission
  /// ε refunded) instead of waiting for queue space. This is the overload
  /// signal the HTTP front door (src/net/) maps to 429 + Retry-After, so a
  /// saturated pool sheds load instead of stalling the accept loop.
  std::future<Result<exec::QueryResult>> TrySubmit(const std::string& sql,
                                                   double epsilon,
                                                   const std::string& tenant,
                                                   obs::Trace* trace = nullptr);

  /// \brief Submits a whole workload batch for one tenant: one fair-admission
  /// decision debiting `queries.size()` tokens/slots, one ledger spend sized
  /// to the batch's total ε, one pool job that answers every query through
  /// PredicateMechanism::AnswerBatch, which sweeps each query as Submit does.
  /// Cache-hit queries are peeled off first and replayed at zero ε;
  /// per-query failures refund that query's ε and surface in its
  /// WorkloadQueryOutcome without failing the batch.
  ///
  /// The whole batch is refused (batch-level error in the future) only
  /// before any query runs: invalid arguments, tenant rate limit /
  /// in-flight cap, insufficient total budget, or a full work queue
  /// (non-blocking dispatch, like TrySubmit). The trace, if non-null, must
  /// stay alive until the future resolves.
  std::future<Result<WorkloadOutcome>> SubmitWorkload(
      const std::vector<WorkloadQuerySpec>& queries, const std::string& tenant,
      obs::Trace* trace = nullptr);

  /// Synchronous convenience wrapper: Submit + get.
  Result<exec::QueryResult> Answer(const std::string& sql, double epsilon,
                                   const std::string& tenant);

  /// \brief Appends `rows` to `table_name` as one atomic batch and bumps the
  /// table's epoch once. Runs on the calling thread (not the engine pool)
  /// under the table's exclusive write lock, serialized against every
  /// in-flight scan of that table; queries racing the batch observe either
  /// the old epoch or the new one, never a half-applied batch.
  ///
  /// The whole batch is validated against the schema before the lock is
  /// taken — a bad row refuses the batch with its index in the error and
  /// nothing applied (InvalidArgument; NotFound for unknown tables). Each
  /// accepted batch is a fresh DP release for the table: answer-cache keys
  /// carry the epoch, so post-append queries spend budget and draw fresh
  /// noise (docs/wire-protocol.md §POST /v1/ingest).
  ///
  /// A non-null `trace` records the apply span (obs::Stage::kIngestApply).
  Result<IngestOutcome> Ingest(const std::string& table_name,
                               const std::vector<std::vector<storage::Value>>& rows,
                               obs::Trace* trace = nullptr);

  /// Remaining ε of a tenant; NotFound for unknown tenants.
  Result<double> RemainingBudget(const std::string& tenant) const;

  /// A consistent snapshot of the service counters.
  ServiceStats Stats() const;

  /// The ledger (e.g. for account snapshots).
  const BudgetLedger& ledger() const { return ledger_; }
  /// The per-tenant admission controller (rate limits, in-flight caps).
  const AdmissionController& admission() const { return admission_; }
  /// The noisy-answer cache.
  const AnswerCache& cache() const { return cache_; }
  /// The shared compiled-plan cache (all pool engines point at it).
  const exec::PlanCache& plan_cache() const { return *plan_cache_; }
  /// The registry holding the service counters (never null; the one from
  /// ServiceOptions::metrics or the service's private one).
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  /// Jobs waiting in the pool queue right now (approximate under load) —
  /// exported as the dpstarj_queue_depth gauge at scrape time.
  size_t queue_depth() const { return pool_.queue_depth(); }
  /// Per-engine-worker busy/idle accounting — exported as
  /// dpstarj_worker_busy_seconds{pool="engine",...} at scrape time.
  std::vector<EnginePool::WorkerStats> worker_stats() const {
    return pool_.worker_stats();
  }

  /// Stops accepting queries, drains the queue, joins the workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

 private:
  /// Shared Submit/TrySubmit path; `blocking` selects Dispatch vs TryDispatch.
  std::future<Result<exec::QueryResult>> SubmitInternal(const std::string& sql,
                                                        double epsilon,
                                                        const std::string& tenant,
                                                        bool blocking,
                                                        obs::Trace* trace);

  /// Runs on a pool worker: bind → cache lookup → answer → cache insert, with
  /// the refund protocol described above.
  Result<exec::QueryResult> Execute(core::DpStarJoin& engine, const std::string& sql,
                                    double epsilon, const std::string& tenant,
                                    obs::Trace* trace);

  /// Runs on a pool worker: bind every query, peel cache hits, answer the
  /// rest through the engine's batch path, refunding each failed or
  /// replayed query's ε individually.
  Result<WorkloadOutcome> ExecuteWorkload(
      core::DpStarJoin& engine, const std::vector<WorkloadQuerySpec>& queries,
      const std::string& tenant, obs::Trace* trace);

  /// Wraps a synchronously-known failure in a ready future.
  static std::future<Result<exec::QueryResult>> FailedFuture(Status status);

  /// The lazily created lock of one served table (see table_locks_).
  std::shared_mutex* TableLock(const std::string& table_name);

  /// \brief Shared (reader) locks over the named tables, acquired in sorted
  /// name order (duplicates collapsed) so readers and the ingest writer
  /// never deadlock. Holders may scan row data; Ingest takes its table's
  /// lock exclusively. The locks release when the returned vector dies.
  std::vector<std::shared_lock<std::shared_mutex>> LockTablesShared(
      std::vector<std::string> names);

  /// Declared first: the counters below live in it.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  /// The catalog the pool engines bind against (ingest resolves tables here).
  const storage::Catalog* catalog_;
  /// One shared_mutex per served table, created on first touch: queries hold
  /// their tables shared for the scan, Ingest holds its table exclusive for
  /// the append + epoch bump (columns are std::vector — growth reallocates,
  /// so readers must never overlap a writer). The registry map itself is
  /// guarded by table_locks_mu_; the shared_mutexes are heap-allocated so
  /// rehashing never moves a lock somebody holds.
  std::mutex table_locks_mu_;
  std::unordered_map<std::string, std::unique_ptr<std::shared_mutex>>
      table_locks_;
  BudgetLedger ledger_;
  AnswerCache cache_;
  AdmissionController admission_;
  /// Declared before pool_: the engines capture it at construction.
  std::shared_ptr<exec::PlanCache> plan_cache_;
  EnginePool pool_;

  // Lifecycle counters, resolved once from metrics_ at construction. These
  // are the single source of truth: Stats() and /metrics both read them.
  obs::Counter* submitted_;
  obs::Counter* completed_;
  obs::Counter* failed_;
  obs::Counter* rejected_budget_;
  obs::Counter* rejected_overload_;
  obs::Counter* rejected_tenant_limited_;
  obs::Counter* workload_batches_;
  obs::Counter* workload_fresh_;
  obs::Counter* workload_cached_;
  obs::Counter* workload_failed_;
  obs::Counter* workload_cache_skips_;
  obs::Counter* ingest_batches_;
  obs::Counter* ingest_rows_;
  obs::Histogram* ingest_duration_;
  obs::Histogram* workload_batch_size_;
  /// Queue depth observed at every dispatch: the saturation distribution the
  /// scrape-time dpstarj_queue_depth gauge (one instant per scrape) misses.
  obs::Histogram* queue_depth_sampled_;
};

}  // namespace dpstarj::service
