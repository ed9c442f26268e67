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

struct ScanPartial {
  double scalar = 0.0;
  int64_t rows = 0;
  std::unique_ptr<GroupAccumulator> groups;
  int64_t error_row = -1;  // first strict-integrity violation in scan order
  int error_dim = -1;
};

// Workers bump scalar/rows on every passing chunk, so each role's partial
// gets its own cache line (see CacheAligned in exec/parallel.h).
using ScanPartials = std::vector<CacheAligned<ScanPartial>>;

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

// First strict-integrity violation across workers (scan order), or row -1.
std::pair<int64_t, int> FirstStrictError(const ScanPartials& partials) {
  int64_t error_row = -1;
  int error_dim = -1;
  for (const auto& slot : partials) {
    const ScanPartial& p = slot.value;
    if (p.error_row >= 0 && (error_row < 0 || p.error_row < error_row)) {
      error_row = p.error_row;
      error_dim = p.error_dim;
    }
  }
  return {error_row, error_dim};
}

Status StrictErrorStatus(const query::BoundQuery& q, int64_t error_row,
                         int error_dim) {
  int64_t key = q.fact->column(q.dims[static_cast<size_t>(error_dim)].fact_fk_col)
                    .int64_data()[static_cast<size_t>(error_row)];
  return Status::InvalidArgument(
      Format("fact row %lld: foreign key %lld misses dimension '%s'",
             static_cast<long long>(error_row), static_cast<long long>(key),
             q.dims[static_cast<size_t>(error_dim)].table.c_str()));
}

// Folds worker partials of a non-grouped scan, in worker order.
QueryResult FinalizeScalar(const ScanPartials& partials, bool is_avg) {
  QueryResult result;
  double scalar = 0.0;
  int64_t rows = 0;
  for (const auto& slot : partials) {
    scalar += slot.value.scalar;
    rows += slot.value.rows;
  }
  result.scalar =
      is_avg ? (rows > 0 ? scalar / static_cast<double>(rows) : 0.0) : scalar;
  return result;
}

// Resolves the worker count for a fact scan of `fact_rows` rows.
int ResolveWorkers(const ExecutorOptions& options, int64_t fact_rows) {
  return MorselPool::ResolveWorkers(options.exec_threads, options.morsel_size,
                                    fact_rows);
}

}  // namespace

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
  // Everything below is the fact sweep (run-sorted or probing) + merge.
  obs::ScopedStage scan_span(trace, obs::Stage::kScan);

  const int64_t fact_rows = plan.fact_rows();
  const int num_workers = ResolveWorkers(options_, fact_rows);
  const bool strict = options_.strict_integrity;
  const bool is_avg = q.query.aggregate == query::AggregateKind::kAvg;

  // ---- run-sorted fast path (grouped, dense code space, non-strict): sweep
  // each group's pre-partitioned run once and emit a single aggregate into
  // its pre-rendered label slot — sequential reads, no random accumulator
  // traffic, and no string work at all. Per-group sums associate in row
  // order, so results are identical at every worker count for exact
  // aggregates and reproducible for inexact ones.
  if (grouped && plan.has_sorted_runs && !strict) {
    const int64_t code_space = static_cast<int64_t>(*plan.code_space);
    const size_t num_labels = plan.group_labels.size();
    const int64_t* offsets = plan.run_offsets.data();
    const int32_t* label_of = plan.label_of_code.data();
    const double* sorted_w =
        plan.sorted_weights.empty() ? nullptr : plan.sorted_weights.data();
    // Only dimensions that can actually reject a fact row take part in the
    // verdict gather (see BitmapPassesAllRows).
    std::vector<const int32_t*> sorted_rows;
    std::vector<const uint64_t*> words;
    for (size_t i = 0; i < num_dims; ++i) {
      if (!plan.fact_dim_row[i]->has_absent_fk &&
          BitmapPassesAllRows(bitmaps[i], plan.dims[i].num_rows)) {
        continue;
      }
      sorted_rows.push_back(plan.sorted_dim_row[i].data());
      words.push_back(bitmaps[i].data());
    }
    const size_t active_dims = sorted_rows.size();
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
    // pass_mask gather-AND per chunk, popcount for the row count, and a wide
    // contiguous accumulate (sum_span) when every row in the chunk passed —
    // the common case for selective-on-few-dims queries — falling back to a
    // set-bit walk for sparse chunks.
    const auto& kern = kernels::ActiveKernels();
    const int32_t* const* srows = sorted_rows.data();
    const uint64_t* const* wptrs = words.data();
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
                kern.pass_mask(srows, wptrs, active_dims, j, nbits);
            if (mask == 0) continue;
            const int hits = __builtin_popcountll(mask);
            rows += hits;
            if (sorted_w == nullptr) continue;  // COUNT: popcount is enough
            sum += hits == nbits
                       ? kern.sum_span(sorted_w + j, nbits)
                       : kernels::SumMaskedAscending(sorted_w, j, mask);
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

  ScanPartials partials(static_cast<size_t>(num_workers));
  if (grouped) {
    const uint64_t dense_limit =
        static_cast<uint64_t>(fact_rows / num_workers) * 4 + 1024;
    for (auto& p : partials) {
      p.value.groups =
          std::make_unique<GroupAccumulator>(plan.code_space, dense_limit);
    }
  }

  std::vector<const int32_t*> dim_rows(num_dims);
  std::vector<const uint64_t*> pass_words(num_dims);
  std::vector<int32_t> sentinels(num_dims);
  for (size_t i = 0; i < num_dims; ++i) {
    dim_rows[i] = plan.fact_dim_row[i]->rows.data();
    pass_words[i] = bitmaps[i].data();
    sentinels[i] = plan.dims[i].num_rows;
  }
  // The non-strict sweep only gathers dimensions that can reject a row
  // (BitmapPassesAllRows); strict mode keeps the full set because it must
  // report the exact (row, dimension) of an integrity violation.
  std::vector<const int32_t*> active_rows;
  std::vector<const uint64_t*> active_words;
  for (size_t i = 0; i < num_dims; ++i) {
    if (!plan.fact_dim_row[i]->has_absent_fk &&
        BitmapPassesAllRows(bitmaps[i], plan.dims[i].num_rows)) {
      continue;
    }
    active_rows.push_back(dim_rows[i]);
    active_words.push_back(pass_words[i]);
  }
  const size_t active_dims = active_rows.size();
  const uint64_t* codes = plan.codes.data();
  const double* weights =
      plan.weights == nullptr ? nullptr : plan.weights->values.data();

  // The scan is pure gathers: resolved dimension rows index into the pass
  // bitmaps (an absent FK hits the sentinel bit, which is always 0), and the
  // group code and weight are pre-packed per row. Strict mode takes a
  // separate branchy loop because it must report the first absent FK in
  // scan order, at its exact (row, dimension), rather than drop the row.
  auto scan = [&](int worker, int64_t begin, int64_t end) {
    ScanPartial& p = partials[static_cast<size_t>(worker)].value;
    if (p.error_row >= 0) return;
    if (strict) {
      for (int64_t row = begin; row < end; ++row) {
        bool pass = true;
        for (size_t i = 0; i < num_dims; ++i) {
          int32_t dr = dim_rows[i][row];
          if (dr == sentinels[i]) {
            p.error_row = row;
            p.error_dim = static_cast<int>(i);
            return;
          }
          if (((pass_words[i][dr >> 6] >> (dr & 63)) & 1) == 0) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        const double w = weights != nullptr ? weights[row] : 1.0;
        if (!grouped) {
          p.scalar += w;
          p.rows += 1;
        } else {
          p.groups->Add(codes[row], w);
        }
      }
      return;
    }
    // Non-strict probing sweep: ≤64-row chunks through the kernel layer.
    // Scalar aggregates take popcount + wide sums; grouped aggregates must
    // touch the accumulator per row, so they walk the mask's set bits (the
    // verdict gather is still vectorized).
    const auto& kern = kernels::ActiveKernels();
    if (active_dims == 0 && !grouped) {
      // Nothing can reject a row: the whole morsel aggregates wide.
      p.rows += end - begin;
      p.scalar += weights != nullptr
                      ? kern.sum_span(weights + begin, end - begin)
                      : static_cast<double>(end - begin);
      return;
    }
    for (int64_t row = begin; row < end; row += 64) {
      const int nbits = static_cast<int>(std::min<int64_t>(64, end - row));
      const uint64_t mask =
          nbits == 64 && active_dims == 0
              ? ~uint64_t{0}
              : kern.pass_mask(active_rows.data(), active_words.data(),
                               active_dims, row, nbits);
      if (mask == 0) continue;
      if (!grouped) {
        const int hits = __builtin_popcountll(mask);
        p.rows += hits;
        if (weights == nullptr) {
          p.scalar += static_cast<double>(hits);
        } else {
          p.scalar += hits == nbits
                          ? kern.sum_span(weights + row, nbits)
                          : kernels::SumMaskedAscending(weights, row, mask);
        }
        continue;
      }
      uint64_t m = mask;
      while (m != 0) {
        const int bit = __builtin_ctzll(m);
        m &= m - 1;
        const int64_t r = row + bit;
        p.groups->Add(codes[r], weights != nullptr ? weights[r] : 1.0);
      }
    }
  };
  MorselPool::Shared().Run(num_workers, fact_rows, options_.morsel_size, scan);

  if (strict) {
    auto [error_row, error_dim] = FirstStrictError(partials);
    if (error_row >= 0) return StrictErrorStatus(q, error_row, error_dim);
  }

  if (!grouped) return FinalizeScalar(partials, is_avg);

  GroupAccumulator& merged = *partials[0].value.groups;
  for (size_t i = 1; i < partials.size(); ++i) {
    merged.MergeFrom(*partials[i].value.groups);
  }
  return RenderPlanGroups(q, plan, merged, is_avg);
}

}  // namespace dpstarj::exec
