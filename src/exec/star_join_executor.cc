#include "exec/star_join_executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "exec/group_code.h"
#include "exec/kernels/kernels.h"
#include "exec/parallel.h"

namespace dpstarj::exec {

namespace {

// Resolves the effective predicate list of dimension i under overrides.
const std::vector<query::BoundPredicate>* EffectivePreds(
    const query::BoundQuery& q, const PredicateOverrides& overrides, size_t i) {
  if (!overrides.empty() && overrides[i].has_value()) return &*overrides[i];
  return &q.dims[i].predicates;
}

// True when bits [0, rows) are all set — a rebuilt predicate bitmap that
// passes every real dimension row. Together with JoinColumn::has_absent_fk
// == false this proves the dimension cannot reject any fact row, so the sweep
// skips its gathers entirely (fully-open predicates are the steady state of
// PM perturbation over wide domains). The check is ISA-independent, so
// scalar and AVX2 executions still take identical code paths.
bool BitmapPassesAllRows(const std::vector<uint64_t>& words, int32_t rows) {
  const int64_t full = rows >> 6;
  for (int64_t w = 0; w < full; ++w) {
    if (words[static_cast<size_t>(w)] != ~uint64_t{0}) return false;
  }
  const int tail = rows & 63;
  if (tail == 0) return true;
  const uint64_t need = ~uint64_t{0} >> (64 - tail);
  return (words[static_cast<size_t>(full)] & need) == need;
}

// Renders a merged group accumulator: labels are rendered once per group
// (ScanPlan::RenderLabel) and merged by rendered label, since distinct codes
// can format identically.
QueryResult RenderPlanGroups(const query::BoundQuery& q, const ScanPlan& plan,
                             const GroupAccumulator& merged, bool is_avg) {
  std::map<std::string, GroupAgg> by_label;
  std::string label;
  merged.ForEach([&](uint64_t code, const GroupAgg& agg) {
    plan.RenderLabel(q, code, &label);
    GroupAgg& slot = by_label[label];
    slot.sum += agg.sum;
    slot.rows += agg.rows;
  });
  QueryResult result;
  result.grouped = true;
  for (const auto& [label_key, agg] : by_label) {
    result.groups[label_key] =
        is_avg ? agg.sum / static_cast<double>(agg.rows) : agg.sum;
  }
  return result;
}

}  // namespace

SweepAccumulator::SweepAccumulator(const ScanPlan& plan, int num_workers)
    : plan_(plan),
      kern_(kernels::ActiveKernels()),
      weights_(plan.weights == nullptr ? nullptr : plan.weights->values.data()),
      codes_(plan.grouped ? plan.codes.data() : nullptr),
      partials_(static_cast<size_t>(num_workers)) {
  if (!plan.grouped) return;
  // Each worker sees about fact_rows / num_workers rows, so a flat vector
  // much larger than that would be mostly zero-initialized slack.
  const uint64_t dense_limit =
      static_cast<uint64_t>(plan.fact_rows() / num_workers) * 4 + 1024;
  for (Partial& p : partials_) {
    p.groups = std::make_unique<GroupAccumulator>(plan.code_space, dense_limit);
  }
}

QueryResult SweepAccumulator::Finalize(const query::BoundQuery& q) {
  const bool is_avg = q.query.aggregate == query::AggregateKind::kAvg;
  if (codes_ != nullptr) {
    GroupAccumulator& merged = *partials_[0].groups;
    for (size_t i = 1; i < partials_.size(); ++i) {
      merged.MergeFrom(*partials_[i].groups);
    }
    return RenderPlanGroups(q, plan_, merged, is_avg);
  }
  double sum = 0.0;
  int64_t rows = 0;
  for (const Partial& p : partials_) {
    sum += p.sum;
    rows += p.rows;
  }
  QueryResult result;
  result.scalar =
      is_avg ? (rows > 0 ? sum / static_cast<double>(rows) : 0.0) : sum;
  return result;
}

Result<QueryResult> StarJoinExecutor::Execute(const query::BoundQuery& q) const {
  return Execute(q, PredicateOverrides(q.dims.size()));
}

Result<QueryResult> StarJoinExecutor::Execute(
    const query::BoundQuery& q, const PredicateOverrides& overrides) const {
  PlanColumnStore columns;  // throwaway: the plan is its columns' only owner
  DPSTARJ_ASSIGN_OR_RETURN(ScanPlan plan, ScanPlan::Compile(q, columns));
  return Execute(q, overrides, plan);
}

Result<QueryResult> StarJoinExecutor::Execute(const query::BoundQuery& q,
                                              const PredicateOverrides& overrides,
                                              const ScanPlan& plan,
                                              obs::Trace* trace) const {
  if (!overrides.empty() && overrides.size() != q.dims.size()) {
    return Status::InvalidArgument(
        Format("override arity %zu != dimension count %zu", overrides.size(),
               q.dims.size()));
  }
  if (!plan.Matches(q)) {
    return Status::InvalidArgument(
        "scan plan is stale for this query (a table changed since compile); "
        "recompile via PlanCache::GetOrCompile");
  }

  const size_t num_dims = q.dims.size();
  const bool grouped = plan.grouped;

  // ---- the cheap per-execution part: one predicate bitmap per dimension.
  std::vector<std::vector<uint64_t>> bitmaps(num_dims);
  {
    obs::ScopedStage bitmap_span(trace, obs::Stage::kBitmapRebuild);
    for (size_t i = 0; i < num_dims; ++i) {
      DPSTARJ_ASSIGN_OR_RETURN(
          bitmaps[i], BuildPassBitmap(plan.dims[i], *q.dims[i].dim,
                                      *EffectivePreds(q, overrides, i)));
    }
  }
  // Everything below is the fact sweep (run-sorted or row-order) + merge.
  obs::ScopedStage scan_span(trace, obs::Stage::kScan);

  const int64_t fact_rows = plan.fact_rows();
  const int num_workers = MorselPool::ResolveWorkers(
      options_.exec_threads, options_.morsel_size, fact_rows);
  const auto& kern = kernels::ActiveKernels();
  // Only dimensions that can actually reject a fact row take part in the
  // verdict gather (see BitmapPassesAllRows).
  std::vector<size_t> active;
  std::vector<const uint64_t*> words;
  for (size_t i = 0; i < num_dims; ++i) {
    if (!plan.fact_dim_row[i]->has_absent_fk &&
        BitmapPassesAllRows(bitmaps[i], plan.dims[i].num_rows)) {
      continue;
    }
    active.push_back(i);
    words.push_back(bitmaps[i].data());
  }
  const size_t active_dims = active.size();
  std::vector<const int32_t*> dim_rows(active_dims);  // filled per sweep
  const int32_t* const* drows = dim_rows.data();
  const uint64_t* const* wptrs = words.data();

  // ---- run-sorted fast path (grouped, dense code space): sweep each group's
  // pre-partitioned run once and emit a single aggregate into its
  // pre-rendered label slot — sequential reads, no random accumulator
  // traffic, and no string work at all. Per-group sums associate in row
  // order, so results are identical at every worker count for exact
  // aggregates and reproducible for inexact ones.
  if (grouped && plan.has_sorted_runs) {
    const int64_t code_space = static_cast<int64_t>(*plan.code_space);
    const size_t num_labels = plan.group_labels.size();
    const int64_t* offsets = plan.run_offsets.data();
    const int32_t* label_of = plan.label_of_code.data();
    const double* sorted_w =
        plan.sorted_weights.empty() ? nullptr : plan.sorted_weights.data();
    for (size_t k = 0; k < active_dims; ++k) {
      dim_rows[k] = plan.sorted_dim_row[active[k]].data();
    }
    // Workers are sized by the real work — the fact rows inside the runs —
    // then clamped to the number of code morsels actually available.
    const int64_t code_morsel = std::max<int64_t>(
        code_space / (int64_t{std::max(num_workers, 1)} * 8) + 1, 64);
    const int64_t code_morsels = (code_space + code_morsel - 1) / code_morsel;
    const int sweep_workers = static_cast<int>(std::min<int64_t>(
        std::max(num_workers, 1), std::max<int64_t>(code_morsels, 1)));
    std::vector<std::vector<GroupAgg>> label_partials(
        static_cast<size_t>(sweep_workers), std::vector<GroupAgg>(num_labels));
    // The sweep dispatches through the kernel layer in ≤64-row chunks: one
    // pass_mask gather-AND per chunk, popcount for the row count, and the
    // chunk sum (kernels::SumChunk) for SUMs.
    auto sweep = [&](int worker, int64_t code_begin, int64_t code_end) {
      std::vector<GroupAgg>& aggs = label_partials[static_cast<size_t>(worker)];
      for (int64_t code = code_begin; code < code_end; ++code) {
        const int64_t begin = offsets[code];
        const int64_t end = offsets[code + 1];
        if (begin == end) continue;
        double sum = 0.0;
        int64_t rows = 0;
        if (active_dims == 0) {
          // Every row of the run passes: one wide accumulate, no gathers.
          rows = end - begin;
          if (sorted_w != nullptr) sum = kern.sum_span(sorted_w + begin, rows);
        } else {
          for (int64_t j = begin; j < end; j += 64) {
            const int nbits = static_cast<int>(std::min<int64_t>(64, end - j));
            const uint64_t mask =
                kern.pass_mask(drows, wptrs, active_dims, j, nbits);
            if (mask == 0) continue;
            rows += __builtin_popcountll(mask);
            if (sorted_w == nullptr) continue;  // COUNT: popcount is enough
            sum += kernels::SumChunk(kern, sorted_w, j, nbits, mask);
          }
        }
        if (rows > 0) {
          GroupAgg& agg = aggs[static_cast<size_t>(label_of[code])];
          agg.sum += sorted_w != nullptr ? sum : static_cast<double>(rows);
          agg.rows += rows;
        }
      }
    };
    MorselPool::Shared().Run(sweep_workers, code_space, code_morsel, sweep);

    // Labels are pre-sorted, so the result map builds in O(groups) with an
    // end hint instead of O(groups log groups) comparisons.
    const bool is_avg = q.query.aggregate == query::AggregateKind::kAvg;
    QueryResult result;
    result.grouped = true;
    for (size_t li = 0; li < num_labels; ++li) {
      GroupAgg total;
      for (const auto& aggs : label_partials) {  // worker order: deterministic
        total.sum += aggs[li].sum;
        total.rows += aggs[li].rows;
      }
      if (total.rows == 0) continue;
      result.groups.emplace_hint(
          result.groups.end(), plan.group_labels[li],
          is_avg ? total.sum / static_cast<double>(total.rows) : total.sum);
    }
    return result;
  }

  // ---- the row-order sweep: ≤ 64-row chunks of pure gathers — resolved
  // dimension rows index into the pass bitmaps, and an absent FK hits the
  // sentinel bit, which is always 0 — then SweepAccumulator does the rest.
  for (size_t k = 0; k < active_dims; ++k) {
    dim_rows[k] = plan.fact_dim_row[active[k]]->rows.data();
  }
  SweepAccumulator acc(plan, num_workers);
  auto scan = [&](int worker, int64_t begin, int64_t end) {
    for (int64_t row = begin; row < end; row += 64) {
      const int nbits = static_cast<int>(std::min<int64_t>(64, end - row));
      const uint64_t mask =
          nbits == 64 && active_dims == 0
              ? ~uint64_t{0}
              : kern.pass_mask(drows, wptrs, active_dims, row, nbits);
      acc.AddChunk(worker, row, nbits, mask);
    }
  };
  MorselPool::Shared().Run(num_workers, fact_rows, options_.morsel_size, scan);
  return acc.Finalize(q);
}

}  // namespace dpstarj::exec
