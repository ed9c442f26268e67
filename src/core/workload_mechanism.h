// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Workload Decomposition (WD) — Algorithm 4 (§5.3): answering a workload of
// correlated star-join queries under one privacy budget.
//
// Pipeline per dimension attribute i (budget ε_i = ε/n):
//   1. one-hot encode the workload into the predicate matrix P_i (l × m_i);
//   2. choose a strategy A_i of interval queries (hierarchical for
//      range-structured workloads, identity otherwise) and solve
//      X_i = P_i · A_i⁺ so that P_i = X_i · A_i;
//   3. perturb every strategy interval with PMA (the Predicate Mechanism's
//      per-attribute primitive) to obtain the noisy strategy Â_i;
//   4. reconstruct the noisy predicate matrix P̂_i = X_i · Â_i.
// Query q's answer contracts its noisy predicate rows against W, the star
// join pre-aggregated over the attributes (Eq. 11): Σ over W's units of
// Π_i P̂_i[q, unit's ordinal on i] · weight. W is a ScanPlan of the
// workload's base query (BindWorkloadBase): its cells, or its fact rows
// while it has none (exec::ContractPlan). W is additive, so the three
// mechanisms below refuse an AVG base with NotSupported, however it was bound.
//
// NOTE on the paper: Algorithm 4 line 8 prints "P̂_i = A_i⁺ Â_i", whose shapes
// do not compose; we implement the standard matrix-mechanism reading above
// (documented in docs/design.md).

#pragma once

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/pma.h"
#include "exec/plan_cache.h"
#include "exec/scan_plan.h"
#include "linalg/strategy.h"
#include "query/binder.h"
#include "query/workload.h"

namespace dpstarj::core {

/// Strategy selection for WD.
enum class WorkloadStrategyKind : int {
  kAuto = 0,         ///< hierarchical if the predicate matrix has ranges, else identity
  kIdentity = 1,     ///< force identity
  kHierarchical = 2  ///< force hierarchical
};

/// \brief Options for the workload mechanisms.
struct WorkloadMechanismOptions {
  WorkloadStrategyKind strategy = WorkloadStrategyKind::kAuto;
  PmaOptions pma;
};

/// \brief Diagnostics returned alongside WD answers.
struct WorkloadDecompositionInfo {
  /// Chosen strategy description per attribute (e.g. "hierarchical(7)").
  std::vector<std::string> strategies;
};

/// \brief The workload's base query, bound: its fact table, aggregate and
/// measure terms, joining each attribute's dimension, with one full-domain
/// predicate per attribute in order — the attribute's own domain and
/// physical column — so that a ScanPlan of it memoizes one ordinal table per
/// attribute. Fails on an empty workload or attribute list, and on queries
/// over different fact tables; AVG is NotSupported, since W is additive.
Result<query::BoundQuery> BindWorkloadBase(
    const query::Binder& binder, const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes);

/// \brief W for `base`: its plan from `cache`. A plan without cells is
/// looked up once more; that lookup is its first hit, at which the cache
/// builds its cells or declines them (exec/plan_cache.h). A declined plan
/// keeps its fact rows, which the contraction then sweeps.
Result<std::shared_ptr<const exec::ScanPlan>> PlanWorkloadBase(
    const query::BoundQuery& base, exec::PlanCache& cache);

/// \brief Answers a workload with Workload Decomposition against `plan`, a
/// plan of `base = BindWorkloadBase(..., workload, attributes)`. Returns one
/// noisy answer per workload query. `info` (optional) receives strategy
/// diagnostics.
Result<std::vector<double>> AnswerWorkloadWithDecomposition(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes, double epsilon,
    Rng* rng, const WorkloadMechanismOptions& options = {},
    WorkloadDecompositionInfo* info = nullptr);

/// \brief The straightforward alternative (§5.3): every query is answered
/// independently by the Predicate Mechanism with budget ε, executing `base`
/// on `plan` with the query's noisy predicates in place of their attributes'
/// full-domain ones. Used as the PM curve in Figure 9.
Result<std::vector<double>> AnswerWorkloadPerQuery(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes, double epsilon,
    Rng* rng, const PmaOptions& pma = {});

/// \brief True answers of the workload: each query's one-hot predicate rows
/// contracted against `plan` (for error metrics).
Result<std::vector<double>> TrueWorkloadAnswers(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes);

}  // namespace dpstarj::core
