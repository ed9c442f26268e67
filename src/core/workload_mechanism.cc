#include "core/workload_mechanism.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "exec/star_join_executor.h"

namespace dpstarj::core {

namespace {

// Where one attribute lives: its full-domain predicate in the base query,
// dims[axis.dim].predicates[pred], and the plan's ordinal table of it.
struct AttributeAxis {
  const query::BoundPredicate* full = nullptr;
  size_t pred = 0;
  exec::ContractionAxis axis;
};

// Resolves every attribute against `base` (one full-domain predicate per
// attribute, as BindWorkloadBase lays them) and `plan`.
Result<std::vector<AttributeAxis>> ResolveAxes(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const std::vector<query::DimensionAttribute>& attributes) {
  if (attributes.empty()) return Status::InvalidArgument("no workload attributes");
  if (base.query.aggregate == query::AggregateKind::kAvg) {
    return Status::NotSupported("W is additive; AVG needs the executor path");
  }
  if (base.NumPredicates() != static_cast<int>(attributes.size())) {
    return Status::InvalidArgument(
        "the base query must carry one predicate per workload attribute");
  }
  if (!plan.Matches(base)) {
    return Status::InvalidArgument("the plan is not a plan of the base query");
  }
  std::vector<AttributeAxis> out;
  for (const auto& attr : attributes) {
    AttributeAxis a;
    for (size_t i = 0; i < base.dims.size() && a.full == nullptr; ++i) {
      if (base.dims[i].table != attr.table) continue;
      const auto& preds = base.dims[i].predicates;
      for (size_t k = 0; k < preds.size(); ++k) {
        if (preds[k].column == attr.column && preds[k].domain == attr.domain) {
          a.full = &preds[k];
          a.pred = k;
          a.axis.dim = i;
          break;
        }
      }
    }
    if (a.full == nullptr) {
      return Status::InvalidArgument(
          Format("the base query has no predicate on %s.%s", attr.table.c_str(),
                 attr.column.c_str()));
    }
    const auto& tables = plan.dims[a.axis.dim].ordinal_tables;
    const auto table = std::find_if(tables.begin(), tables.end(), [&](const auto& t) {
      return t->column_index == a.full->column_index &&
             t->domain == a.full->domain;
    });
    if (table == tables.end()) {
      return Status::InvalidArgument(
          Format("the plan memoizes no ordinal table for %s.%s",
                 attr.table.c_str(), attr.column.c_str()));
    }
    a.axis.table = static_cast<size_t>(table - tables.begin());
    out.push_back(a);
  }
  return out;
}

// Attribute predicate `full` narrowed to the interval [lo, hi].
query::BoundPredicate Interval(const query::BoundPredicate& full, int64_t lo,
                               int64_t hi) {
  query::BoundPredicate p = full;
  p.kind = (lo == hi) ? query::PredicateKind::kPoint : query::PredicateKind::kRange;
  p.lo_index = lo;
  p.hi_index = hi;
  return p;
}

// Query q's predicate on an attribute from its one-hot row: nullopt when the
// row selects the full domain (no predicate). Rows are intervals by
// construction of BuildPredicateMatrices on point/range queries.
Result<std::optional<query::BoundPredicate>> RowToPredicate(
    const linalg::Matrix& m, int q, const query::BoundPredicate& full) {
  int lo = -1, hi = -1;
  for (int c = 0; c < m.cols(); ++c) {
    if (m.At(q, c) != 0.0) {
      if (lo < 0) lo = c;
      hi = c;
    }
  }
  if (lo < 0) return Status::InvalidArgument("workload row selects nothing");
  for (int c = lo; c <= hi; ++c) {
    if (m.At(q, c) != 1.0) {
      return Status::NotSupported("workload row is not an interval");
    }
  }
  if (lo == 0 && hi == m.cols() - 1) {
    return std::optional<query::BoundPredicate>();  // full domain
  }
  return std::optional<query::BoundPredicate>(Interval(full, lo, hi));
}

// Contracts row q of each attribute's matrix against the plan.
Result<std::vector<double>> ContractRows(
    const exec::ScanPlan& plan, const std::vector<AttributeAxis>& axes,
    const std::vector<linalg::Matrix>& matrices, int queries) {
  std::vector<exec::ContractionAxis> plan_axes;
  for (const auto& a : axes) plan_axes.push_back(a.axis);
  std::vector<double> answers;
  answers.reserve(static_cast<size_t>(queries));
  for (int q = 0; q < queries; ++q) {
    std::vector<std::vector<double>> weights;
    weights.reserve(matrices.size());
    for (const auto& m : matrices) weights.push_back(m.Row(q));
    DPSTARJ_ASSIGN_OR_RETURN(double ans,
                             exec::ContractPlan(plan, plan_axes, weights));
    answers.push_back(ans);
  }
  return answers;
}

}  // namespace

Result<query::BoundQuery> BindWorkloadBase(
    const query::Binder& binder, const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes) {
  if (workload.size() == 0) return Status::InvalidArgument("empty workload");
  if (attributes.empty()) return Status::InvalidArgument("no workload attributes");
  query::StarJoinQuery base;
  base.fact_table = workload.queries[0].fact_table;
  base.aggregate = workload.queries[0].aggregate;
  base.measure_terms = workload.queries[0].measure_terms;
  if (base.aggregate == query::AggregateKind::kAvg) {
    return Status::NotSupported("W is additive; AVG needs the executor path");
  }
  for (const auto& q : workload.queries) {
    if (q.fact_table != base.fact_table) {
      return Status::InvalidArgument("workload queries must share a fact table");
    }
  }
  for (const auto& attr : attributes) {
    if (std::find(base.joined_tables.begin(), base.joined_tables.end(),
                  attr.table) == base.joined_tables.end()) {
      base.joined_tables.push_back(attr.table);
    }
  }
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder.Bind(base));
  for (const auto& attr : attributes) {
    for (auto& d : bound.dims) {
      if (d.table != attr.table) continue;
      DPSTARJ_ASSIGN_OR_RETURN(int col, d.dim->schema().FieldIndex(attr.column));
      query::BoundPredicate full;
      full.table = attr.table;
      full.column = attr.column;
      full.column_index = col;
      full.domain = attr.domain;
      d.predicates.push_back(Interval(full, 0, attr.domain.size() - 1));
    }
  }
  return bound;
}

Result<std::shared_ptr<const exec::ScanPlan>> PlanWorkloadBase(
    const query::BoundQuery& base, exec::PlanCache& cache) {
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const exec::ScanPlan> plan,
                           cache.GetOrCompile(base));
  if (plan->cells != nullptr) return plan;
  // A plan without cells gets them, or is declined them, at its first hit.
  return cache.GetOrCompile(base);
}

Result<std::vector<double>> AnswerWorkloadWithDecomposition(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes, double epsilon,
    Rng* rng, const WorkloadMechanismOptions& options,
    WorkloadDecompositionInfo* info) {
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be positive");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  DPSTARJ_ASSIGN_OR_RETURN(std::vector<AttributeAxis> axes,
                           ResolveAxes(base, plan, attributes));
  if (workload.size() == 0) return std::vector<double>{};

  DPSTARJ_ASSIGN_OR_RETURN(std::vector<linalg::Matrix> pred_matrices,
                           query::BuildPredicateMatrices(workload, attributes));

  int n = static_cast<int>(attributes.size());
  double epsilon_i = epsilon / static_cast<double>(n);
  if (info != nullptr) info->strategies.clear();

  // Per attribute: choose strategy, decompose, perturb, reconstruct.
  std::vector<linalg::Matrix> noisy_pred_matrices;
  noisy_pred_matrices.reserve(attributes.size());
  for (size_t a = 0; a < attributes.size(); ++a) {
    int m = static_cast<int>(attributes[a].domain.size());
    linalg::IntervalStrategy strategy;
    switch (options.strategy) {
      case WorkloadStrategyKind::kIdentity:
        strategy = linalg::MakeIdentityStrategy(m);
        break;
      case WorkloadStrategyKind::kHierarchical:
        strategy = linalg::MakeHierarchicalStrategy(m);
        break;
      case WorkloadStrategyKind::kAuto:
        strategy = linalg::ChooseStrategy(pred_matrices[a], m);
        break;
    }
    if (info != nullptr) info->strategies.push_back(strategy.description);

    linalg::Matrix strategy_matrix = strategy.AsMatrix();
    DPSTARJ_ASSIGN_OR_RETURN(
        linalg::Matrix x, linalg::SolveDecomposition(pred_matrices[a], strategy_matrix));

    // Perturb every strategy interval with PMA at the attribute's budget.
    linalg::Matrix noisy_strategy(static_cast<int>(strategy.intervals.size()), m);
    for (size_t j = 0; j < strategy.intervals.size(); ++j) {
      auto [lo, hi] = strategy.intervals[j];
      DPSTARJ_ASSIGN_OR_RETURN(
          query::BoundPredicate noisy,
          PerturbPredicate(Interval(*axes[a].full, lo, hi), epsilon_i, rng,
                           options.pma));
      for (int c = static_cast<int>(noisy.lo_index); c <= static_cast<int>(noisy.hi_index);
           ++c) {
        noisy_strategy.At(static_cast<int>(j), c) = 1.0;
      }
    }
    DPSTARJ_ASSIGN_OR_RETURN(linalg::Matrix reconstructed, x.Multiply(noisy_strategy));
    noisy_pred_matrices.push_back(std::move(reconstructed));
  }
  return ContractRows(plan, axes, noisy_pred_matrices, workload.size());
}

Result<std::vector<double>> AnswerWorkloadPerQuery(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes, double epsilon,
    Rng* rng, const PmaOptions& pma) {
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be positive");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  DPSTARJ_ASSIGN_OR_RETURN(std::vector<AttributeAxis> axes,
                           ResolveAxes(base, plan, attributes));
  DPSTARJ_ASSIGN_OR_RETURN(std::vector<linalg::Matrix> pred_matrices,
                           query::BuildPredicateMatrices(workload, attributes));

  const exec::StarJoinExecutor executor;
  std::vector<double> answers;
  answers.reserve(static_cast<size_t>(workload.size()));
  for (int q = 0; q < workload.size(); ++q) {
    // Collect this query's predicates.
    std::vector<std::optional<query::BoundPredicate>> preds(attributes.size());
    int n = 0;
    for (size_t a = 0; a < attributes.size(); ++a) {
      DPSTARJ_ASSIGN_OR_RETURN(preds[a],
                               RowToPredicate(pred_matrices[a], q, *axes[a].full));
      if (preds[a].has_value()) ++n;
    }
    if (n == 0) {
      return Status::InvalidArgument(
          Format("workload query %d has no predicate; PM cannot answer it", q));
    }
    // PM's path: the base query under the noisy predicates, each replacing
    // its attribute's full-domain one, so an attribute the query does not
    // filter still drops out-of-domain rows.
    double epsilon_i = epsilon / static_cast<double>(n);
    exec::PredicateOverrides overrides(base.dims.size());
    for (size_t a = 0; a < attributes.size(); ++a) {
      if (!preds[a].has_value()) continue;
      auto& dim_preds = overrides[axes[a].axis.dim];
      if (!dim_preds.has_value()) dim_preds = base.dims[axes[a].axis.dim].predicates;
      DPSTARJ_ASSIGN_OR_RETURN((*dim_preds)[axes[a].pred],
                               PerturbPredicate(*preds[a], epsilon_i, rng, pma));
    }
    DPSTARJ_ASSIGN_OR_RETURN(exec::QueryResult ans,
                             executor.Execute(base, overrides, plan));
    answers.push_back(ans.scalar);
  }
  return answers;
}

Result<std::vector<double>> TrueWorkloadAnswers(
    const query::BoundQuery& base, const exec::ScanPlan& plan,
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes) {
  DPSTARJ_ASSIGN_OR_RETURN(std::vector<AttributeAxis> axes,
                           ResolveAxes(base, plan, attributes));
  DPSTARJ_ASSIGN_OR_RETURN(std::vector<linalg::Matrix> pred_matrices,
                           query::BuildPredicateMatrices(workload, attributes));
  return ContractRows(plan, axes, pred_matrices, workload.size());
}

}  // namespace dpstarj::core
