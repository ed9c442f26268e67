// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// DpStarJoin — the user-facing facade of the library. Wires together the
// catalog, the SQL front-end, the binder, the star-join executor, the
// Predicate Mechanism and Workload Decomposition, with optional cumulative
// privacy-budget accounting.
//
// Typical use:
//   dpstarj::core::DpStarJoin engine(&catalog);
//   auto noisy = engine.AnswerSql(
//       "SELECT count(*) FROM Lineorder, Date "
//       "WHERE Lineorder.orderdate = Date.datekey AND Date.year = 1993",
//       /*epsilon=*/0.5);

#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/predicate_mechanism.h"
#include "core/workload_mechanism.h"
#include "dp/budget.h"
#include "exec/query_result.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "query/workload.h"
#include "storage/catalog.h"

namespace dpstarj::core {

/// \brief Facade configuration.
struct DpStarJoinOptions {
  /// Seed for all mechanism randomness (reproducible runs).
  uint64_t seed = Rng::kDefaultSeed;
  /// PMA tunables.
  PmaOptions pma;
  /// When set, the engine enforces a cumulative privacy budget: every Answer*
  /// call spends its ε and fails with BudgetExhausted once depleted.
  std::optional<double> total_budget;
  /// Strategy selection for workload decomposition.
  WorkloadStrategyKind workload_strategy = WorkloadStrategyKind::kAuto;
  /// Star-join executor tuning (scan thread count, morsel size). Pure
  /// post-processing: never affects noise semantics, only throughput.
  exec::ExecutorOptions executor;
  /// Compiled-plan cache for repeated Predicate Mechanism executions. When
  /// null the engine's mechanism creates a private one; the service layer
  /// injects one shared cache across all pool engines so any engine's
  /// compile warms every other. Also pure post-processing.
  std::shared_ptr<exec::PlanCache> plan_cache;
};

/// \brief The DP-starJ engine.
///
/// Not thread-safe (owns one Rng and one budget); use one engine per thread.
class DpStarJoin {
 public:
  /// The catalog must outlive the engine.
  explicit DpStarJoin(const storage::Catalog* catalog, DpStarJoinOptions options = {});

  /// \brief Answers a star-join query under ε-DP with the Predicate Mechanism
  /// (Algorithm 3; COUNT, SUM and GROUP BY are all supported per §5.3).
  Result<exec::QueryResult> Answer(const query::StarJoinQuery& q, double epsilon);

  /// Parses SQL, resolves it against the catalog, and answers under ε-DP.
  Result<exec::QueryResult> AnswerSql(const std::string& sql, double epsilon);

  /// \brief Answers an already-bound query with caller-provided randomness,
  /// bypassing the engine's own Rng and budget.
  ///
  /// This is the const, re-entrant core of Answer/AnswerSql: it touches no
  /// engine state besides the (immutable) mechanism options, so it is safe to
  /// call concurrently as long as each caller supplies a distinct Rng. The
  /// service layer routes every pool-worker answer through here — budget
  /// accounting lives in service::BudgetLedger, randomness in the worker's
  /// per-engine stream. A non-null `trace` records the mechanism's stage
  /// spans (noise draw, plan compile, bitmap rebuild, scan).
  Result<exec::QueryResult> AnswerBound(const query::BoundQuery& bound,
                                        double epsilon, Rng* rng,
                                        obs::Trace* trace = nullptr) const;

  /// \brief Batch form of AnswerBound (PredicateMechanism::AnswerBatch):
  /// every query of `batch` is perturbed independently at its own epsilon in
  /// batch order, then answered like AnswerBound — each answer is
  /// bit-identical to sequential AnswerBound calls on the same Rng. Returns
  /// one Result per query, in batch order; per-query failures do not fail
  /// the batch. Const and re-entrant like AnswerBound; budget accounting
  /// stays with the caller.
  std::vector<Result<exec::QueryResult>> AnswerBoundBatch(
      const std::vector<BatchQueryRef>& batch, Rng* rng,
      obs::Trace* trace = nullptr,
      exec::WorkloadExecStats* stats = nullptr) const;

  /// Exact (non-private) answer — for utility evaluation only.
  Result<exec::QueryResult> TrueAnswer(const query::StarJoinQuery& q) const;
  /// Exact (non-private) answer of SQL text.
  Result<exec::QueryResult> TrueAnswerSql(const std::string& sql) const;

  /// \brief Answers a workload of counting queries over the given dimension
  /// attributes under ε-DP. `decompose` selects Workload Decomposition
  /// (Algorithm 4) vs independent per-query PM (§5.3's baseline). WD
  /// contracts against W, a plan of the workload's base query kept in the
  /// mechanism's plan cache (core::PlanWorkloadBase), so W persists across calls
  /// and extends after an ingest.
  Result<std::vector<double>> AnswerWorkload(
      const query::Workload& workload,
      const std::vector<query::DimensionAttribute>& attributes, double epsilon,
      bool decompose = true);

  /// Exact workload answers.
  Result<std::vector<double>> TrueWorkload(
      const query::Workload& workload,
      const std::vector<query::DimensionAttribute>& attributes) const;

  /// Remaining budget (nullopt when accounting is disabled).
  std::optional<double> RemainingBudget() const;

  /// The engine's RNG (e.g. to reseed between experiments).
  Rng* rng() { return &rng_; }

  /// The engine's binder (shares the engine's catalog; const and re-entrant).
  const query::Binder& binder() const { return binder_; }

 private:
  Status SpendBudget(double epsilon);

  const storage::Catalog* catalog_;
  DpStarJoinOptions options_;
  query::Binder binder_;
  PredicateMechanism mechanism_;
  Rng rng_;
  std::optional<dp::PrivacyBudget> budget_;
};

}  // namespace dpstarj::core
