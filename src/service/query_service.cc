#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/string_util.h"
#include "query/canonical.h"

namespace dpstarj::service {

namespace {

// Resolves the per-engine executor thread count so the pool's workers share
// the machine instead of oversubscribing it: N engines × T exec threads is
// kept ≤ the hardware thread count (with a floor of 1 each). Every engine is
// pointed at the service's shared plan cache unless the caller supplied one.
core::DpStarJoinOptions ResolveEngineOptions(
    const ServiceOptions& options,
    const std::shared_ptr<exec::PlanCache>& shared_plans) {
  core::DpStarJoinOptions engine = options.engine;
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int engines = std::max(1, options.num_engines);
  const int fair_share = std::max(1, hardware / engines);
  int requested = options.exec_threads_per_engine;
  if (requested <= 0) requested = fair_share;
  engine.executor.exec_threads = std::min(requested, fair_share);
  if (engine.plan_cache == nullptr) engine.plan_cache = shared_plans;
  return engine;
}

// The tables a bound query scans, for LockTablesShared.
std::vector<std::string> TableNamesOf(const query::BoundQuery& bound) {
  std::vector<std::string> names;
  names.reserve(bound.dims.size() + 1);
  names.push_back(bound.fact->name());
  for (const auto& d : bound.dims) names.push_back(d.dim->name());
  return names;
}

}  // namespace

std::string ServiceStats::ToString() const {
  return Format(
      "submitted %llu, completed %llu, failed %llu, rejected %llu, "
      "overloaded %llu, tenant-limited %llu | "
      "workloads: %llu batches (%llu fresh / %llu cached / %llu failed) | "
      "ingest: %llu batches / %llu rows | "
      "cache: %llu hits / %llu misses (%.1f%% hit rate), eps saved %.4g | "
      "plans: %llu hits / %llu misses (%llu extended), "
      "%llu invalidated (%llu append / %llu identity)",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(rejected_budget),
      static_cast<unsigned long long>(rejected_overload),
      static_cast<unsigned long long>(rejected_tenant_limited),
      static_cast<unsigned long long>(workload_batches),
      static_cast<unsigned long long>(workload_queries_fresh),
      static_cast<unsigned long long>(workload_queries_cached),
      static_cast<unsigned long long>(workload_queries_failed),
      static_cast<unsigned long long>(ingest_batches),
      static_cast<unsigned long long>(ingest_rows),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), 100.0 * cache.HitRate(),
      cache.epsilon_saved, static_cast<unsigned long long>(plan_cache.hits),
      static_cast<unsigned long long>(plan_cache.misses),
      static_cast<unsigned long long>(plan_cache.extends),
      static_cast<unsigned long long>(plan_cache.invalidations),
      static_cast<unsigned long long>(plan_cache.invalidated_append),
      static_cast<unsigned long long>(plan_cache.invalidated_identity));
}

QueryService::QueryService(const storage::Catalog* catalog, ServiceOptions options)
    : metrics_(options.metrics != nullptr ? options.metrics
                                          : std::make_shared<obs::MetricsRegistry>()),
      catalog_(catalog),
      ledger_(options.default_tenant_budget),
      cache_(options.cache_capacity),
      admission_(options.admission),
      plan_cache_(options.engine.plan_cache != nullptr
                      ? options.engine.plan_cache
                      : std::make_shared<exec::PlanCache>(
                            options.plan_cache_capacity)),
      pool_(catalog, options.num_engines, options.queue_capacity,
            ResolveEngineOptions(options, plan_cache_)),
      submitted_(metrics_->GetCounter("dpstarj_queries_submitted_total",
                                      "Queries that reached a pool worker")),
      completed_(metrics_->GetCounter("dpstarj_queries_completed_total",
                                      "Queries answered (fresh or replayed)")),
      failed_(metrics_->GetCounter("dpstarj_queries_failed_total",
                                   "Admitted queries that failed (epsilon refunded)")),
      rejected_budget_(metrics_->GetCounter(
          "dpstarj_queries_rejected_total", "Queries refused at admission, by kind",
          {{"reason", "budget"}})),
      rejected_overload_(metrics_->GetCounter(
          "dpstarj_queries_rejected_total", "Queries refused at admission, by kind",
          {{"reason", "overload"}})),
      rejected_tenant_limited_(metrics_->GetCounter(
          "dpstarj_queries_rejected_total", "Queries refused at admission, by kind",
          {{"reason", "tenant_limited"}})),
      workload_batches_(metrics_->GetCounter(
          "dpstarj_workload_batches_total",
          "Workload batches that reached a pool worker")),
      workload_fresh_(metrics_->GetCounter(
          "dpstarj_workload_queries_total",
          "Workload queries by outcome", {{"outcome", "fresh"}})),
      workload_cached_(metrics_->GetCounter(
          "dpstarj_workload_queries_total",
          "Workload queries by outcome", {{"outcome", "cached"}})),
      workload_failed_(metrics_->GetCounter(
          "dpstarj_workload_queries_total",
          "Workload queries by outcome", {{"outcome", "failed"}})),
      workload_cache_skips_(metrics_->GetCounter(
          "dpstarj_workload_cache_skips_total",
          "Cache-hit workload queries replayed before the engine runs")),
      ingest_batches_(metrics_->GetCounter(
          "dpstarj_ingest_batches_total",
          "Ingest batches accepted (one table-epoch bump each)")),
      ingest_rows_(metrics_->GetCounter(
          "dpstarj_ingest_rows_total",
          "Fact rows appended across all accepted ingest batches")),
      ingest_duration_(metrics_->GetHistogram(
          "dpstarj_ingest_duration_seconds",
          "Wall time of the ingest apply (validation + locked append)", {},
          obs::Histogram::ExponentialBuckets(1e-5, 4.0, 12))),
      workload_batch_size_(metrics_->GetHistogram(
          "dpstarj_workload_batch_size", "Queries per workload batch", {},
          obs::Histogram::ExponentialBuckets(1.0, 2.0, 9))),
      queue_depth_sampled_(metrics_->GetHistogram(
          "dpstarj_queue_depth_sampled",
          "Pool queue depth observed at each dispatch", {},
          obs::Histogram::ExponentialBuckets(1.0, 2.0, 11))) {}

QueryService::~QueryService() { Shutdown(); }

std::shared_mutex* QueryService::TableLock(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(table_locks_mu_);
  auto& slot = table_locks_[table_name];
  if (slot == nullptr) slot = std::make_unique<std::shared_mutex>();
  return slot.get();
}

std::vector<std::shared_lock<std::shared_mutex>> QueryService::LockTablesShared(
    std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(names.size());
  for (const auto& name : names) locks.emplace_back(*TableLock(name));
  return locks;
}

Status QueryService::RegisterTenant(const std::string& tenant, double total_epsilon) {
  return ledger_.RegisterTenant(tenant, total_epsilon);
}

void QueryService::SetTenantLimits(const std::string& tenant, TenantLimits limits) {
  admission_.SetTenantLimits(tenant, limits);
}

std::future<Result<exec::QueryResult>> QueryService::FailedFuture(Status status) {
  std::promise<Result<exec::QueryResult>> promise;
  std::future<Result<exec::QueryResult>> future = promise.get_future();
  promise.set_value(std::move(status));
  return future;
}

std::future<Result<exec::QueryResult>> QueryService::Submit(
    const std::string& sql, double epsilon, const std::string& tenant,
    obs::Trace* trace) {
  return SubmitInternal(sql, epsilon, tenant, /*blocking=*/true, trace);
}

std::future<Result<exec::QueryResult>> QueryService::TrySubmit(
    const std::string& sql, double epsilon, const std::string& tenant,
    obs::Trace* trace) {
  return SubmitInternal(sql, epsilon, tenant, /*blocking=*/false, trace);
}

std::future<Result<exec::QueryResult>> QueryService::SubmitInternal(
    const std::string& sql, double epsilon, const std::string& tenant,
    bool blocking, obs::Trace* trace) {
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return FailedFuture(Status::InvalidArgument("epsilon must be positive and finite"));
  }
  // Fair admission first: a tenant over its own rate limit or in-flight cap
  // is refused before the ledger or the pool is touched — a tenant-limited
  // RateLimited verdict, distinct from the global-overload Unavailable. An
  // admitted submission holds one of the tenant's in-flight slots until its
  // job reaches a terminal state; every exit below releases it exactly once
  // (inside the job when it runs, at the call site when dispatch fails).
  AdmissionDecision fair = [&] {
    obs::ScopedStage admission_span(trace, obs::Stage::kAdmission);
    return admission_.TryAdmit(tenant);
  }();
  if (!fair.status.ok()) {
    rejected_tenant_limited_->Inc();
    return FailedFuture(std::move(fair.status));
  }
  auto dispatch = [this, blocking, &tenant,
                   trace](EnginePool::Job<exec::QueryResult> job) {
    const auto enqueued = std::chrono::steady_clock::now();
    EnginePool::Job<exec::QueryResult> with_release =
        [this, tenant, trace, enqueued,
         inner = std::move(job)](core::DpStarJoin& engine) {
          // First action on the worker: close the queue-wait span. The trace
          // pointer is safe to write here — the submitter keeps the trace
          // alive until the job's future resolves, and the promise/future
          // handoff publishes these writes back to it.
          if (trace != nullptr) {
            trace->Record(
                obs::Stage::kQueueWait,
                static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - enqueued)
                        .count()));
          }
          // Scope guard, not a tail call: the pool's worker converts a
          // throwing job into a Status, and the slot must flow back on that
          // path too — a leak here would 429 the tenant until restart.
          struct SlotGuard {
            AdmissionController& admission;
            const std::string& tenant;
            ~SlotGuard() { admission.Release(tenant); }
          } guard{admission_, tenant};
          return inner(engine);
        };
    // Depth at dispatch, before this job joins the queue: the distribution
    // operators watch for saturation building ahead of latency.
    queue_depth_sampled_->Observe(static_cast<double>(pool_.queue_depth()));
    return blocking ? pool_.Dispatch(std::move(with_release), tenant)
                    : pool_.TryDispatch(std::move(with_release), tenant);
  };
  // Admission control: spend the ε before any work is queued, so concurrent
  // submissions race on the ledger (which is exact), not on the answer path.
  Status admit = [&] {
    obs::ScopedStage spend_span(trace, obs::Stage::kLedgerSpend);
    return ledger_.Spend(tenant, epsilon);
  }();
  if (!admit.ok()) {
    if (admit.code() == StatusCode::kBudgetExhausted) {
      // Replays are free, so an exhausted tenant can still re-read answers it
      // already paid for. Probe the cache without spending anything; a miss
      // surfaces the original refusal. `submitted` is counted as the probe's
      // first action on the worker — the counter is monotonic (a registry
      // counter cannot be decremented), so it must only move once the job is
      // guaranteed to run; counting in-job also keeps completed ≤ submitted,
      // since the same job increments both in order.
      auto probe = dispatch(
          [this, sql, epsilon, admit, trace](core::DpStarJoin& engine)
              -> Result<exec::QueryResult> {
            submitted_->Inc();
            auto bound = [&] {
              obs::ScopedStage bind_span(trace, obs::Stage::kBind);
              return engine.binder().BindSql(sql);
            }();
            if (!bound.ok()) {
              failed_->Inc();
              return bound.status();
            }
            // Epoch-keyed probe with no table lock: the key only reads the
            // tables' atomic version counters, never row data, and a replay
            // is a pure copy of a stored answer.
            auto replay = [&] {
              obs::ScopedStage lookup_span(trace, obs::Stage::kCacheLookup);
              return cache_.Lookup(query::CanonicalEpochKey(*bound, epsilon),
                                   epsilon);
            }();
            if (replay) {
              if (trace != nullptr) trace->answer_cache_hit = true;
              completed_->Inc();
              return std::move(*replay);
            }
            rejected_budget_->Inc();
            return admit;
          });
      if (probe.ok()) {
        return std::move(*probe);
      }
      admission_.Release(tenant);  // the probe job will never run
      if (probe.status().code() == StatusCode::kUnavailable) {
        // The probe spent no ε; a full queue is an overload signal, not a
        // budget verdict — let the caller retry for its free replay.
        rejected_overload_->Inc();
        return FailedFuture(probe.status());
      }
      rejected_budget_->Inc();
      return FailedFuture(std::move(admit));
    }
    // Nothing was dispatched, and the ledger does not know this tenant
    // (NotFound / invalid name): drop the admission state the probe lazily
    // created too, or arbitrary tenant names on the public query endpoint
    // would grow the controller's map without bound.
    admission_.ReleaseAndForget(tenant);
    rejected_budget_->Inc();
    return FailedFuture(std::move(admit));
  }
  // `submitted` moves as the job's first worker-side action (see the probe
  // path above for why): no rollback is needed when dispatch is refused, and
  // a fast worker still cannot push completed past it.
  auto dispatched = dispatch([this, sql, epsilon, tenant, trace](
                                 core::DpStarJoin& engine) {
    submitted_->Inc();
    return Execute(engine, sql, epsilon, tenant, trace);
  });
  if (!dispatched.ok()) {
    // Queue full (TrySubmit) or pool shut down: the job will never run, so
    // the admission ε and the in-flight slot flow back.
    (void)ledger_.Refund(tenant, epsilon);
    admission_.Release(tenant);
    if (dispatched.status().code() == StatusCode::kUnavailable) {
      rejected_overload_->Inc();
    } else {
      failed_->Inc();
    }
    return FailedFuture(dispatched.status());
  }
  return std::move(*dispatched);
}

Result<exec::QueryResult> QueryService::Execute(core::DpStarJoin& engine,
                                                const std::string& sql,
                                                double epsilon,
                                                const std::string& tenant,
                                                obs::Trace* trace) {
  auto bound = [&] {
    obs::ScopedStage bind_span(trace, obs::Stage::kBind);
    return engine.binder().BindSql(sql);
  }();
  if (!bound.ok()) {
    // The tenant pays for answers, not for malformed or unbindable queries.
    (void)ledger_.Refund(tenant, epsilon);
    failed_->Inc();
    return bound.status();
  }
  // Reader-side table locks, held from key construction through the scan:
  // the epochs folded into the key cannot move while the engine reads row
  // data, so the cached answer always matches the epoch it is keyed by.
  // Ingest takes these exclusively per batch (see Ingest below).
  auto table_locks = LockTablesShared(TableNamesOf(*bound));
  const std::string key = query::CanonicalEpochKey(*bound, epsilon);
  auto replay = [&] {
    obs::ScopedStage lookup_span(trace, obs::Stage::kCacheLookup);
    return cache_.Lookup(key, epsilon);
  }();
  if (replay) {
    // Post-processing closure: re-releasing a stored noisy answer is free.
    if (trace != nullptr) trace->answer_cache_hit = true;
    (void)ledger_.Refund(tenant, epsilon);
    completed_->Inc();
    return std::move(*replay);
  }
  auto answer = engine.AnswerBound(*bound, epsilon, engine.rng(), trace);
  if (!answer.ok()) {
    (void)ledger_.Refund(tenant, epsilon);
    failed_->Inc();
    return answer.status();
  }
  answer->epoch = bound->fact->version();
  cache_.Insert(key, *answer);
  completed_->Inc();
  return std::move(*answer);
}

std::future<Result<WorkloadOutcome>> QueryService::SubmitWorkload(
    const std::vector<WorkloadQuerySpec>& queries, const std::string& tenant,
    obs::Trace* trace) {
  auto failed = [](Status status) {
    std::promise<Result<WorkloadOutcome>> promise;
    std::future<Result<WorkloadOutcome>> future = promise.get_future();
    promise.set_value(std::move(status));
    return future;
  };
  if (queries.empty()) {
    return failed(
        Status::InvalidArgument("workload must contain at least one query"));
  }
  double total_epsilon = 0.0;
  for (const auto& q : queries) {
    if (!std::isfinite(q.epsilon) || q.epsilon <= 0.0) {
      return failed(Status::InvalidArgument(
          "every workload epsilon must be positive and finite"));
    }
    total_epsilon += q.epsilon;
  }
  const int n = static_cast<int>(queries.size());
  // Fair admission debits the tenant's bucket by the batch's query count in
  // one all-or-nothing decision — a workload is N queries of capacity, not
  // one. A batch larger than the tenant's burst or in-flight cap is never
  // admissible; docs/operations.md covers sizing.
  AdmissionDecision fair = [&] {
    obs::ScopedStage admission_span(trace, obs::Stage::kAdmission);
    return admission_.TryAdmit(tenant, n);
  }();
  if (!fair.status.ok()) {
    rejected_tenant_limited_->Inc(static_cast<uint64_t>(n));
    return failed(std::move(fair.status));
  }
  // One ledger decision sized to the batch's total ε. Unlike the single-query
  // path there is no cache-probe dance for an exhausted tenant: the batch is
  // refused whole, and callers wanting free replays route the individual
  // queries through Submit (whose probe path stays).
  Status admit = [&] {
    obs::ScopedStage spend_span(trace, obs::Stage::kLedgerSpend);
    return ledger_.Spend(tenant, total_epsilon);
  }();
  if (!admit.ok()) {
    if (admit.code() == StatusCode::kNotFound) {
      admission_.ReleaseAndForget(tenant, n);
    } else {
      admission_.Release(tenant, n);
    }
    rejected_budget_->Inc(static_cast<uint64_t>(n));
    return failed(std::move(admit));
  }
  const auto enqueued = std::chrono::steady_clock::now();
  queue_depth_sampled_->Observe(static_cast<double>(pool_.queue_depth()));
  auto dispatched = pool_.TryDispatch(
      [this, queries, tenant, trace, enqueued](core::DpStarJoin& engine) {
        if (trace != nullptr) {
          trace->Record(
              obs::Stage::kQueueWait,
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - enqueued)
                      .count()));
        }
        // A scope guard, so the slots flow back when ExecuteWorkload throws
        // too (the pool then resolves the future to Internal).
        struct SlotGuard {
          AdmissionController& admission;
          const std::string& tenant;
          int count;
          ~SlotGuard() { admission.Release(tenant, count); }
        } guard{admission_, tenant, static_cast<int>(queries.size())};
        return ExecuteWorkload(engine, queries, tenant, trace);
      },
      tenant);
  if (!dispatched.ok()) {
    // Queue full or pool shut down: the job will never run, so the whole
    // batch's ε and in-flight slots flow back.
    (void)ledger_.Refund(tenant, total_epsilon);
    admission_.Release(tenant, n);
    if (dispatched.status().code() == StatusCode::kUnavailable) {
      rejected_overload_->Inc();
    } else {
      failed_->Inc(static_cast<uint64_t>(n));
    }
    return failed(dispatched.status());
  }
  return std::move(*dispatched);
}

Result<WorkloadOutcome> QueryService::ExecuteWorkload(
    core::DpStarJoin& engine, const std::vector<WorkloadQuerySpec>& queries,
    const std::string& tenant, obs::Trace* trace) {
  submitted_->Inc(static_cast<uint64_t>(queries.size()));
  workload_batches_->Inc();
  workload_batch_size_->Observe(static_cast<double>(queries.size()));

  WorkloadOutcome outcome;
  outcome.queries.resize(queries.size());

  // Bind every query first; a bind failure refunds that query's ε only — the
  // rest of the batch still answers.
  std::vector<std::optional<query::BoundQuery>> bound(queries.size());
  {
    obs::ScopedStage bind_span(trace, obs::Stage::kBind);
    for (size_t i = 0; i < queries.size(); ++i) {
      auto b = engine.binder().BindSql(queries[i].sql);
      if (!b.ok()) {
        (void)ledger_.Refund(tenant, queries[i].epsilon);
        failed_->Inc();
        workload_failed_->Inc();
        outcome.queries[i].status = b.status();
        continue;
      }
      bound[i] = std::move(*b);
    }
  }

  // Reader-side locks over the union of the batch's tables, held from key
  // construction through the batch's sweeps and the cache inserts: the
  // epochs folded into the keys cannot move mid-batch, so every stored answer
  // matches the epoch it is keyed by (an ingest batch lands entirely before
  // or entirely after this workload's sweeps).
  std::vector<std::string> batch_tables;
  for (const auto& b : bound) {
    if (!b.has_value()) continue;
    for (auto& name : TableNamesOf(*b)) batch_tables.push_back(std::move(name));
  }
  auto table_locks = LockTablesShared(std::move(batch_tables));

  // Answer-cache pre-pass: cache-hit queries are replayed at zero ε (their
  // share of the spend flows back) — the engine only answers queries that
  // genuinely need a fresh draw.
  std::vector<std::string> keys(queries.size());
  std::vector<size_t> miss;  // indices that still need a fresh draw
  miss.reserve(queries.size());
  {
    obs::ScopedStage lookup_span(trace, obs::Stage::kCacheLookup);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!bound[i].has_value()) continue;
      keys[i] = query::CanonicalEpochKey(*bound[i], queries[i].epsilon);
      auto replay = cache_.Lookup(keys[i], queries[i].epsilon);
      if (replay) {
        if (trace != nullptr) trace->answer_cache_hit = true;
        (void)ledger_.Refund(tenant, queries[i].epsilon);
        completed_->Inc();
        workload_cached_->Inc();
        workload_cache_skips_->Inc();
        outcome.queries[i].result = std::move(*replay);
        outcome.queries[i].cached = true;
        continue;
      }
      miss.push_back(i);
    }
  }

  if (!miss.empty()) {
    std::vector<core::BatchQueryRef> batch;
    batch.reserve(miss.size());
    for (size_t i : miss) batch.push_back({&*bound[i], queries[i].epsilon});
    std::vector<Result<exec::QueryResult>> results =
        engine.AnswerBoundBatch(batch, engine.rng(), trace, &outcome.exec);
    for (size_t k = 0; k < miss.size(); ++k) {
      const size_t i = miss[k];
      if (!results[k].ok()) {
        (void)ledger_.Refund(tenant, queries[i].epsilon);
        failed_->Inc();
        workload_failed_->Inc();
        outcome.queries[i].status = results[k].status();
        continue;
      }
      results[k]->epoch = bound[i]->fact->version();
      cache_.Insert(keys[i], *results[k]);
      completed_->Inc();
      workload_fresh_->Inc();
      outcome.queries[i].result = std::move(*results[k]);
    }
  }
  return outcome;
}

Result<exec::QueryResult> QueryService::Answer(const std::string& sql, double epsilon,
                                               const std::string& tenant) {
  return Submit(sql, epsilon, tenant).get();
}

Result<IngestOutcome> QueryService::Ingest(
    const std::string& table_name,
    const std::vector<std::vector<storage::Value>>& rows, obs::Trace* trace) {
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> table,
                           catalog_->GetTable(table_name));
  if (rows.empty()) {
    return Status::InvalidArgument("ingest batch must contain at least one row");
  }
  const auto start = std::chrono::steady_clock::now();
  // Validate the whole batch before taking the write lock: the batch applies
  // all-or-nothing, and in-flight scans are never stalled behind validation
  // of rows that might be refused anyway.
  for (size_t i = 0; i < rows.size(); ++i) {
    Status valid = table->ValidateRow(rows[i]);
    if (!valid.ok()) {
      return Status::InvalidArgument(
          Format("ingest row %zu: %s", i, valid.message().c_str()));
    }
  }
  IngestOutcome out;
  {
    obs::ScopedStage apply_span(trace, obs::Stage::kIngestApply);
    std::unique_lock<std::shared_mutex> lock(*TableLock(table_name));
    for (const auto& row : rows) {
      Status applied = table->AppendRow(row);
      // Pre-validated above, and appends to this table are serialized by the
      // exclusive lock — a failure here is a logic error, not bad input.
      DPSTARJ_CHECK(applied.ok(), "validated ingest row must append");
    }
    // One epoch bump per accepted batch (not per row): the batch is the unit
    // of release — queries see either none or all of it.
    table->BumpVersion();
    out.appended = static_cast<int64_t>(rows.size());
    out.rows_total = table->num_rows();
    out.version = table->version();
  }
  ingest_batches_->Inc();
  ingest_rows_->Inc(static_cast<uint64_t>(out.appended));
  ingest_duration_->Observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return out;
}

Result<double> QueryService::RemainingBudget(const std::string& tenant) const {
  return ledger_.Remaining(tenant);
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_->Value();
  stats.completed = completed_->Value();
  stats.failed = failed_->Value();
  stats.rejected_budget = rejected_budget_->Value();
  stats.rejected_overload = rejected_overload_->Value();
  stats.rejected_tenant_limited = rejected_tenant_limited_->Value();
  stats.tenant_rate_limited = admission_.total_rate_limited();
  stats.tenant_capped = admission_.total_capped();
  stats.workload_batches = workload_batches_->Value();
  stats.workload_queries_fresh = workload_fresh_->Value();
  stats.workload_queries_cached = workload_cached_->Value();
  stats.workload_queries_failed = workload_failed_->Value();
  stats.workload_cache_skips = workload_cache_skips_->Value();
  stats.ingest_batches = ingest_batches_->Value();
  stats.ingest_rows = ingest_rows_->Value();
  stats.cache = cache_.GetStats();
  stats.plan_cache = plan_cache_->GetStats();
  return stats;
}

void QueryService::Shutdown() { pool_.Shutdown(); }

}  // namespace dpstarj::service
