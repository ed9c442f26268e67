#include "core/predicate_mechanism.h"

namespace dpstarj::core {

Result<exec::PredicateOverrides> PredicateMechanism::PerturbPredicates(
    const query::BoundQuery& q, double epsilon, Rng* rng) const {
  if (epsilon <= 0.0) return Status::InvalidArgument("epsilon must be positive");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");

  int n = q.NumPredicates();
  if (n == 0) {
    return Status::InvalidArgument(
        "Predicate Mechanism requires at least one dimension predicate; a "
        "predicate-free aggregate has no input to randomize");
  }
  double epsilon_i = epsilon / static_cast<double>(n);

  exec::PredicateOverrides overrides(q.dims.size());
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].predicates.empty()) continue;
    std::vector<query::BoundPredicate> noisy_preds;
    noisy_preds.reserve(q.dims[i].predicates.size());
    for (const auto& pred : q.dims[i].predicates) {
      DPSTARJ_ASSIGN_OR_RETURN(query::BoundPredicate noisy,
                               PerturbPredicate(pred, epsilon_i, rng, pma_));
      noisy_preds.push_back(std::move(noisy));
    }
    overrides[i] = std::move(noisy_preds);
  }
  return overrides;
}

Result<exec::QueryResult> PredicateMechanism::Answer(const query::BoundQuery& q,
                                                     double epsilon, Rng* rng,
                                                     obs::Trace* trace) const {
  Result<exec::PredicateOverrides> overrides = [&] {
    obs::ScopedStage noise_span(trace, obs::Stage::kNoiseDraw);
    return PerturbPredicates(q, epsilon, rng);
  }();
  if (!overrides.ok()) return overrides.status();
  return Execute(q, *overrides, trace, nullptr);
}

std::vector<Result<exec::QueryResult>> PredicateMechanism::AnswerBatch(
    const std::vector<BatchQueryRef>& batch, Rng* rng, obs::Trace* trace,
    exec::WorkloadExecStats* stats) const {
  // Noise first, for the whole batch: each query at its own epsilon, in batch
  // order. This consumes the RNG exactly as `for q: Answer(q, ...)` would.
  std::vector<Result<exec::PredicateOverrides>> overrides;
  overrides.reserve(batch.size());
  {
    obs::ScopedStage noise_span(trace, obs::Stage::kNoiseDraw);
    for (const BatchQueryRef& ref : batch) {
      if (ref.query == nullptr) {
        overrides.push_back(
            Status::InvalidArgument("batch query must not be null"));
      } else {
        overrides.push_back(PerturbPredicates(*ref.query, ref.epsilon, rng));
      }
    }
  }
  std::vector<Result<exec::QueryResult>> out;
  out.reserve(batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    if (!overrides[k].ok()) {
      out.push_back(overrides[k].status());
    } else {
      out.push_back(Execute(*batch[k].query, *overrides[k], trace, stats));
    }
  }
  return out;
}

Result<exec::QueryResult> PredicateMechanism::Execute(
    const query::BoundQuery& q, const exec::PredicateOverrides& overrides,
    obs::Trace* trace, exec::WorkloadExecStats* stats) const {
  // The first execution of a query compiles its ScanPlan; every later one
  // (and every other tenant/engine sharing the cache) only rebuilds
  // predicate bitmaps. Plan reuse and layout are pure execution strategy —
  // the noise was drawn before this step, so results are distributed exactly
  // as a one-off execution (and are bit-identical given the same draw). A
  // capacity-0 cache compiles a throwaway plan per call.
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const exec::ScanPlan> plan,
                           plan_cache_->GetOrCompile(q, trace));
  return executor_.Execute(q, overrides, *plan, trace, stats);
}

}  // namespace dpstarj::core
