#include "core/predicate_mechanism.h"

#include "common/string_util.h"

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
  // Execute against the cached scaffold: the first Answer on a query compiles
  // its ScanPlan, every later one (and every other tenant/engine sharing the
  // cache) only rebuilds predicate bitmaps. Plan reuse is pure execution
  // strategy — the noise was drawn above, so results are distributed exactly
  // as a one-off execution (and are bit-identical given the same draw). A
  // capacity-0 cache compiles a throwaway plan per call.
  DPSTARJ_ASSIGN_OR_RETURN(std::shared_ptr<const exec::ScanPlan> plan,
                           plan_cache_->GetOrCompile(q, trace));
  return executor_.Execute(q, *overrides, *plan, trace);
}

std::vector<Result<exec::QueryResult>> PredicateMechanism::AnswerBatch(
    const std::vector<BatchQueryRef>& batch, Rng* rng, obs::Trace* trace,
    exec::WorkloadExecStats* stats) const {
  // Per-query outcome slots (Result has no default constructor).
  std::vector<std::optional<Result<exec::QueryResult>>> slots(batch.size());
  std::vector<exec::PredicateOverrides> overrides(batch.size());

  // ---- 1. noise: perturb each query at its own epsilon, in batch order.
  // This consumes the RNG exactly as `for q: Answer(q, ...)` would, so the
  // batch strategy below is pure post-processing over the same draws.
  {
    obs::ScopedStage noise_span(trace, obs::Stage::kNoiseDraw);
    for (size_t k = 0; k < batch.size(); ++k) {
      if (batch[k].query == nullptr) {
        slots[k] = Status::InvalidArgument("batch query must not be null");
        continue;
      }
      Result<exec::PredicateOverrides> ov =
          PerturbPredicates(*batch[k].query, batch[k].epsilon, rng);
      if (!ov.ok()) {
        slots[k] = ov.status();
        continue;
      }
      overrides[k] = std::move(*ov);
    }
  }

  // ---- 2. execution strategy: each query's cached scaffold, then one
  // WorkloadPlan over the batch.
  std::vector<exec::WorkloadItem> items;
  std::vector<size_t> item_query;  // items[i] answers batch[item_query[i]]
  items.reserve(batch.size());
  item_query.reserve(batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    if (slots[k].has_value()) continue;
    Result<std::shared_ptr<const exec::ScanPlan>> plan =
        plan_cache_->GetOrCompile(*batch[k].query, trace);
    if (!plan.ok()) {
      slots[k] = plan.status();
      continue;
    }
    exec::WorkloadItem item;
    item.query = batch[k].query;
    item.overrides = &overrides[k];
    item.plan = std::move(*plan);
    items.push_back(std::move(item));
    item_query.push_back(k);
  }
  if (!items.empty()) {
    Result<exec::WorkloadPlan> wplan =
        exec::WorkloadPlan::Compile(std::move(items));
    if (!wplan.ok()) {
      for (size_t k : item_query) slots[k] = wplan.status();
    } else {
      if (stats != nullptr) {
        const exec::WorkloadExecStats& s = wplan->stats();
        stats->queries += s.queries;
        stats->scans += s.scans;
        stats->cell_sweeps += s.cell_sweeps;
        stats->predicate_refs += s.predicate_refs;
        stats->predicate_nodes += s.predicate_nodes;
        stats->shared_dim_slots += s.shared_dim_slots;
      }
      Result<std::vector<exec::QueryResult>> results =
          wplan->Execute(executor_.options(), trace);
      if (!results.ok()) {
        for (size_t k : item_query) slots[k] = results.status();
      } else {
        for (size_t i = 0; i < item_query.size(); ++i) {
          slots[item_query[i]] = std::move((*results)[i]);
        }
      }
    }
  }

  std::vector<Result<exec::QueryResult>> out;
  out.reserve(batch.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

Result<double> PredicateMechanism::AnswerWithCube(const query::BoundQuery& q,
                                                  const exec::DataCube& cube,
                                                  double epsilon, Rng* rng) const {
  if (!q.group_key_layout.empty()) {
    return Status::NotSupported("cube path does not support GROUP BY");
  }
  DPSTARJ_ASSIGN_OR_RETURN(exec::PredicateOverrides overrides,
                           PerturbPredicates(q, epsilon, rng));
  // Collect the noisy predicates in dims-then-predicate order — the cube axis
  // order of BuildFromQueryPredicates.
  std::vector<const query::BoundPredicate*> preds;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (!overrides[i].has_value()) continue;
    for (const auto& p : *overrides[i]) preds.push_back(&p);
  }
  if (preds.size() != cube.axes().size()) {
    return Status::InvalidArgument(
        Format("cube has %zu axes but the query has %zu predicates",
               cube.axes().size(), preds.size()));
  }
  return cube.Evaluate(preds);
}

}  // namespace dpstarj::core
