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

Result<std::vector<double>> DpStarJoin::AnswerWorkload(
    const query::Workload& workload,
    const std::vector<query::DimensionAttribute>& attributes, double epsilon,
    bool decompose) {
  if (decompose) {
    DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery base,
                             BindWorkloadBase(binder_, workload, attributes));
    DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const exec::ScanPlan> plan,
                             PlanWorkloadBase(base, *mechanism_.plan_cache()));
    DPSTARJ_RETURN_NOT_OK(SpendBudget(epsilon));
    WorkloadMechanismOptions opts;
    opts.strategy = options_.workload_strategy;
    opts.pma = options_.pma;
    return AnswerWorkloadWithDecomposition(base, *plan, workload, attributes,
                                           epsilon, &rng_, opts);
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
  DPSTARJ_ASSIGN_OR_RETURN(query::BoundQuery base,
                           BindWorkloadBase(binder_, workload, attributes));
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const exec::ScanPlan> plan,
                           PlanWorkloadBase(base, *mechanism_.plan_cache()));
  return TrueWorkloadAnswers(base, *plan, workload, attributes);
}

std::optional<double> DpStarJoin::RemainingBudget() const {
  if (!budget_.has_value()) return std::nullopt;
  return budget_->remaining();
}

}  // namespace dpstarj::core
