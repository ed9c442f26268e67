// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The Predicate Mechanism — the heart of DP-starJ (paper Algorithms 1 & 3).
//
// Instead of adding noise to the query *output* (whose sensitivity is
// unbounded under foreign-key cascades), PM perturbs the query *input*: each
// dimension predicate φ_{a_i} is replaced by a PMA-noised predicate with
// budget ε_i = ε/n (n = number of predicate-bearing dimensions), and the
// noisy query is executed verbatim over the real data. By Theorems 5.2–5.4
// the composition is ε-DP; the error depends only on the predicate domain
// sizes and the data distribution, never on join fan-outs.

#pragma once

#include <memory>

#include "common/random.h"
#include "common/result.h"
#include "core/pma.h"
#include "exec/plan_cache.h"
#include "exec/query_result.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"

namespace dpstarj::core {

/// \brief One query of a batch Answer: a bound query and its own epsilon.
/// The pointed-to query must outlive the AnswerBatch call.
struct BatchQueryRef {
  const query::BoundQuery* query = nullptr;
  double epsilon = 0.0;
};

/// \brief Algorithms 1 & 3: DP star-join answering via predicate perturbation.
///
/// Thread-compatible: callers pass their own Rng. The mechanism owns one
/// executor and one plan cache (possibly shared, see below), both safe for
/// concurrent const use.
class PredicateMechanism {
 public:
  /// `exec_options` configures the executor running the perturbed query
  /// (thread count, morsel size). Execution strategy is post-processing: it
  /// never affects the noise draw, only throughput.
  ///
  /// `plan_cache` holds the compiled ScanPlans that make repeated Answer
  /// calls on the same bound query nearly free (only predicate bitmaps are
  /// rebuilt per noisy run). Pass a shared cache to pool plans across
  /// mechanisms/engines (the service layer does); nullptr gives the
  /// mechanism its own. Every execution goes through a plan: a capacity-0
  /// cache just compiles a throwaway one per query.
  explicit PredicateMechanism(PmaOptions pma = {},
                              exec::ExecutorOptions exec_options = {},
                              std::shared_ptr<exec::PlanCache> plan_cache = nullptr)
      : pma_(pma),
        executor_(exec_options),
        plan_cache_(plan_cache != nullptr
                        ? std::move(plan_cache)
                        : std::make_shared<exec::PlanCache>()) {}

  /// \brief Phase 2 of DP-starJ: perturbs every predicate of the bound query
  /// with its ε/n share, returning executor overrides (Algorithm 1 lines
  /// 2–5). Fails if the query carries no predicate (there would be nothing to
  /// randomize, so the output could not satisfy DP).
  Result<exec::PredicateOverrides> PerturbPredicates(const query::BoundQuery& q,
                                                     double epsilon, Rng* rng) const;

  /// \brief Algorithm 3 (and its SUM / GROUP BY variants, §5.3): perturb
  /// predicates, then answer the noisy query over the real instance.
  /// COUNT/SUM return a scalar; GROUP BY returns per-group aggregates.
  ///
  /// A non-null `trace` records the noise-draw, plan-compile, bitmap-rebuild
  /// and scan spans of this execution; the answer itself is unaffected.
  Result<exec::QueryResult> Answer(const query::BoundQuery& q, double epsilon,
                                   Rng* rng, obs::Trace* trace = nullptr) const;

  /// \brief Answers a batch of bound queries: perturbs every query's
  /// predicates in batch order — consuming the RNG exactly like sequential
  /// Answer calls — then runs each perturbed query through the step Answer
  /// uses: its cached plan and one sweep of the plan's cells or fact rows.
  /// So every answer equals sequential Answer's on an identically seeded
  /// Rng, bit for bit.
  ///
  /// Returns one Result per query, in batch order: a query that fails to
  /// perturb, plan or execute gets its own error without failing the batch.
  /// `stats` (optional) accumulates each execution's receipts.
  std::vector<Result<exec::QueryResult>> AnswerBatch(
      const std::vector<BatchQueryRef>& batch, Rng* rng,
      obs::Trace* trace = nullptr,
      exec::WorkloadExecStats* stats = nullptr) const;

  /// The plan cache answering executions (for stats and admin Clear()).
  const std::shared_ptr<exec::PlanCache>& plan_cache() const { return plan_cache_; }

 private:
  /// The execution step of Answer and AnswerBatch: the query's cached plan,
  /// then one StarJoinExecutor sweep under the perturbed `overrides`.
  Result<exec::QueryResult> Execute(const query::BoundQuery& q,
                                    const exec::PredicateOverrides& overrides,
                                    obs::Trace* trace,
                                    exec::WorkloadExecStats* stats) const;

  PmaOptions pma_;
  exec::StarJoinExecutor executor_;
  std::shared_ptr<exec::PlanCache> plan_cache_;
};

}  // namespace dpstarj::core
