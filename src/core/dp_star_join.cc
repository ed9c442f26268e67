#include "core/dp_star_join.h"

#include "exec/naive_executor.h"
#include "exec/star_join_executor.h"

namespace dpstarj::core {

DpStarJoin::DpStarJoin(const storage::Catalog* catalog, DpStarJoinOptions options)
    : catalog_(catalog),
      options_(options),
      binder_(catalog),
      mechanism_(options.pma, options.executor, options.plan_cache),
      rng_(options.seed) {
  DPSTARJ_CHECK(catalog != nullptr, "catalog must not be null");
  if (options_.total_budget.has_value()) {
    budget_.emplace(*options_.total_budget);
  }
}

Status DpStarJoin::SpendBudget(double epsilon) {
  if (!budget_.has_value()) return Status::OK();
  return budget_->Spend(epsilon);
}

Result<exec::QueryResult> DpStarJoin::Answer(const query::StarJoinQuery& q,
                                             double epsilon) {
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder_.Bind(q));
  DPSTARJ_RETURN_NOT_OK(SpendBudget(epsilon));
  return mechanism_.Answer(bound, epsilon, &rng_);
}

Result<exec::QueryResult> DpStarJoin::AnswerSql(const std::string& sql,
                                                double epsilon) {
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder_.BindSql(sql));
  DPSTARJ_RETURN_NOT_OK(SpendBudget(epsilon));
  return mechanism_.Answer(bound, epsilon, &rng_);
}

Result<exec::QueryResult> DpStarJoin::AnswerBound(const query::BoundQuery& bound,
                                                  double epsilon, Rng* rng,
                                                  obs::Trace* trace) const {
  return mechanism_.Answer(bound, epsilon, rng, trace);
}

std::vector<Result<exec::QueryResult>> DpStarJoin::AnswerBoundBatch(
    const std::vector<BatchQueryRef>& batch, Rng* rng, obs::Trace* trace,
    exec::WorkloadExecStats* stats) const {
  return mechanism_.AnswerBatch(batch, rng, trace, stats);
}

Result<exec::QueryResult> DpStarJoin::TrueAnswer(const query::StarJoinQuery& q) const {
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder_.Bind(q));
  exec::StarJoinExecutor executor(options_.executor);
  return executor.Execute(bound);
}

Result<exec::QueryResult> DpStarJoin::TrueAnswerSql(const std::string& sql) const {
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder_.BindSql(sql));
  exec::StarJoinExecutor executor(options_.executor);
  return executor.Execute(bound);
}

Result<exec::DataCube> DpStarJoin::BuildWorkloadCube(
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes) const {
  if (workload.size() == 0) {
    return Status::InvalidArgument("empty workload");
  }
  // Assemble a predicate-free base query joining the attribute dimensions;
  // the cube over `attributes` is the W vector all answers contract against.
  query::StarJoinQuery base;
  base.fact_table = workload.queries[0].fact_table;
  base.aggregate = workload.queries[0].aggregate;
  base.measure_terms = workload.queries[0].measure_terms;
  for (const auto& q : workload.queries) {
    if (q.fact_table != base.fact_table) {
      return Status::InvalidArgument("workload queries must share a fact table");
    }
  }
  for (const auto& attr : attributes) {
    bool present = false;
    for (const auto& t : base.joined_tables) {
      if (t == attr.table) {
        present = true;
        break;
      }
    }
    if (!present) base.joined_tables.push_back(attr.table);
  }
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bound, binder_.Bind(base));
  return exec::DataCube::Build(bound, attributes);
}

Result<std::vector<double>> DpStarJoin::AnswerWorkload(
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes, double epsilon,
    bool decompose) {
  if (decompose) {
    DPSTARJ_ASSIGN_OR_RETURN(exec::DataCube cube,
                             BuildWorkloadCube(workload, attributes));
    DPSTARJ_RETURN_NOT_OK(SpendBudget(epsilon));
    WorkloadMechanismOptions opts;
    opts.strategy = options_.workload_strategy;
    opts.pma = options_.pma;
    return AnswerWorkloadWithDecomposition(cube, workload, attributes, epsilon,
                                           &rng_, opts);
  }
  // Independent per-query PM (§5.3's baseline), through the batch path:
  // bind every workload query, spend once, then perturb each query
  // independently like AnswerWorkloadPerQuery and answer it with its own
  // sweep (PredicateMechanism::AnswerBatch).
  if (workload.size() == 0) return Status::InvalidArgument("empty workload");
  std::vector<query::BoundQuery> bound;
  bound.reserve(workload.queries.size());
  for (const auto& q : workload.queries) {
    DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery bq, binder_.Bind(q));
    bound.push_back(std::move(bq));
  }
  DPSTARJ_RETURN_NOT_OK(SpendBudget(epsilon));
  std::vector<BatchQueryRef> batch;
  batch.reserve(bound.size());
  for (const auto& bq : bound) batch.push_back({&bq, epsilon});
  std::vector<Result<exec::QueryResult>> results =
      mechanism_.AnswerBatch(batch, &rng_);
  std::vector<double> answers;
  answers.reserve(results.size());
  for (auto& r : results) {
    DPSTARJ_RETURN_NOT_OK(r.status());
    answers.push_back(r->scalar);
  }
  return answers;
}

Result<std::vector<double>> DpStarJoin::TrueWorkload(
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes) const {
  DPSTARJ_ASSIGN_OR_RETURN(exec::DataCube cube,
                           BuildWorkloadCube(workload, attributes));
  return TrueWorkloadAnswers(cube, workload, attributes);
}

std::optional<double> DpStarJoin::RemainingBudget() const {
  if (!budget_.has_value()) return std::nullopt;
  return budget_->remaining();
}

}  // namespace dpstarj::core
