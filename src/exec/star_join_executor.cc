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

// True when bits [0, rows) are all set — a rebuilt predicate bitmap that
// passes every real dimension row (or class). Together with a layout that
// never resolves to the sentinel (cells never do; fact rows when
// JoinColumn::has_absent_fk == false) this proves the dimension cannot
// reject any unit, so the sweep skips its gathers entirely (fully-open
// predicates are the steady state of PM perturbation over wide domains). The check is ISA-independent, so
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

// Appends the compares of dimension i's effective predicates over the
// plan's ordinal columns to `ranges` when every predicate has a column,
// that is, keeps a memoized (column, domain) pair whose domain fits one; else
// appends nothing and returns false, and the dimension gathers its bitmap.
// Each range is clamped to [0, domain size - 1], so a row without an ordinal
// (the width's top value) fails it, as the sentinel and out-of-domain rows
// fail the bitmap: the compares pass exactly the rows the gather passes.
bool AddOrdinalRanges(const ScanPlan& plan, size_t i,
                      const std::vector<query::BoundPredicate>& preds,
                      std::vector<kernels::OrdinalRange>& ranges) {
  if (preds.empty() || i >= plan.ordinal_columns.size()) return false;
  const size_t first = ranges.size();
  for (const auto& pred : preds) {
    const int t = plan.dims[i].TableOf(pred);
    const OrdinalColumn* column =
        t < 0 ? nullptr
              : plan.ordinal_columns[i][static_cast<size_t>(t)].get();
    if (column == nullptr) {
      ranges.resize(first);
      return false;
    }
    const int64_t lo = std::max<int64_t>(pred.lo_index, 0);
    const int64_t hi = std::min<int64_t>(pred.hi_index, pred.domain.size() - 1);
    if (lo > hi) {
      ranges.push_back({column->data(), column->width, 1, 0});  // none pass
    } else {
      ranges.push_back({column->data(), column->width,
                        static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)});
    }
  }
  return true;
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

SweepAccumulator::SweepAccumulator(const ScanPlan& plan,
                                   const query::BoundQuery& q, bool cells,
                                   int num_workers)
    : plan_(plan),
      q_(q),
      kern_(kernels::ActiveKernels()),
      grouped_(plan.grouped),
      cells_(cells),
      weights_(nullptr),
      counts_(cells ? plan.cells->counts.data() : nullptr),
      slots_(plan.grouped && cells ? plan.cells->slots.data() : nullptr),
      partials_(static_cast<size_t>(num_workers)) {
  if (plan.weights != nullptr) {
    weights_ = cells ? plan.cells->weights.data() : plan.weights->values.data();
  }
  if (!plan.grouped) return;
  if (cells) {
    for (Partial& p : partials_) p.slot_aggs.resize(plan.cells->labels.size());
    return;
  }
  // Each worker sees about fact_rows / num_workers rows, so a flat vector
  // much larger than that would be mostly zero-initialized slack.
  const uint64_t dense_limit =
      static_cast<uint64_t>(plan.fact_rows() / num_workers) * 4 + 1024;
  for (Partial& p : partials_) {
    p.groups = std::make_unique<GroupAccumulator>(plan.code_space, dense_limit);
  }
}

QueryResult SweepAccumulator::Finalize() {
  const bool is_avg = q_.query.aggregate == query::AggregateKind::kAvg;
  if (grouped_ && !cells_) {
    GroupAccumulator& merged = *partials_[0].groups;
    for (size_t i = 1; i < partials_.size(); ++i) {
      merged.MergeFrom(*partials_[i].groups);
    }
    return RenderPlanGroups(q_, plan_, merged, is_avg);
  }
  QueryResult result;
  if (grouped_) {
    // Labels are pre-sorted, so the result map builds in O(groups) with an
    // end hint instead of O(groups log groups) comparisons.
    result.grouped = true;
    const std::vector<std::string>& labels = plan_.cells->labels;
    for (size_t s = 0; s < labels.size(); ++s) {
      GroupAgg total;
      for (const Partial& p : partials_) {  // worker order: deterministic
        total.sum += p.slot_aggs[s].sum;
        total.rows += p.slot_aggs[s].rows;
      }
      if (total.rows == 0) continue;
      result.groups.emplace_hint(
          result.groups.end(), labels[s],
          is_avg ? total.sum / static_cast<double>(total.rows) : total.sum);
    }
    return result;
  }
  double sum = 0.0;
  int64_t rows = 0;
  for (const Partial& p : partials_) {
    sum += p.sum;
    rows += p.rows;
  }
  if (weights_ == nullptr) sum = static_cast<double>(rows);
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
                                              obs::Trace* trace,
                                              WorkloadExecStats* stats) const {
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
  const bool cells = plan.CellsServe(q, overrides);

  // ---- the cheap per-execution part: one predicate bitmap per dimension,
  // over its classes when the cells serve, else over its rows.
  std::vector<std::vector<uint64_t>> bitmaps(num_dims);
  {
    obs::ScopedStage bitmap_span(trace, obs::Stage::kBitmapRebuild);
    for (size_t i = 0; i < num_dims; ++i) {
      DPSTARJ_ASSIGN_OR_RETURN(
          bitmaps[i],
          BuildPassBitmap(cells ? plan.cells->classes[i] : plan.dims[i],
                          *q.dims[i].dim, EffectivePreds(q, overrides, i)));
    }
  }
  if (stats != nullptr) {
    stats->queries += 1;
    (cells ? stats->cell_sweeps : stats->scans) += 1;
    stats->predicate_nodes += static_cast<int64_t>(num_dims);
  }
  // Everything below is the sweep + merge.
  obs::ScopedStage scan_span(trace, obs::Stage::kScan);

  // The layout: per dimension, unit → class (a fact row's class is its
  // dimension row), and the unit count. Cells are few: one morsel on the
  // calling thread, so their answers do not depend on the options.
  const int64_t units = cells ? plan.cells->num_cells() : plan.fact_rows();
  const int64_t morsel_size =
      cells ? std::max<int64_t>(units, 1) : options_.morsel_size;
  const int num_workers =
      cells ? 1
            : MorselPool::ResolveWorkers(options_.exec_threads,
                                         options_.morsel_size, units);
  const auto& kern = kernels::ActiveKernels();
  // Only dimensions that can actually reject a unit take part in the
  // verdict (see BitmapPassesAllRows). On the fact rows, a dimension whose
  // effective predicates all have ordinal columns compares them; every
  // other dimension, and every dimension of a cell sweep, gathers its
  // bitmap.
  std::vector<kernels::OrdinalRange> ranges;
  std::vector<const int32_t*> classes;
  std::vector<const uint64_t*> words;
  for (size_t i = 0; i < num_dims; ++i) {
    const bool may_miss = !cells && plan.fact_dim_row[i]->has_absent_fk;
    const int32_t num_classes =
        cells ? plan.cells->classes[i].num_rows : plan.dims[i].num_rows;
    if (!may_miss && BitmapPassesAllRows(bitmaps[i], num_classes)) continue;
    if (!cells &&
        AddOrdinalRanges(plan, i, EffectivePreds(q, overrides, i), ranges)) {
      continue;
    }
    classes.push_back(cells ? plan.cells->cell_class[i].data()
                            : plan.fact_dim_row[i]->rows.data());
    words.push_back(bitmaps[i].data());
  }
  const size_t num_ranges = ranges.size();
  const kernels::OrdinalRange* rptr = ranges.data();
  const size_t active_dims = classes.size();
  const int32_t* const* cptrs = classes.data();
  const uint64_t* const* wptrs = words.data();

  // ---- the sweep: ≤ 64-unit chunks of range compares over the ordinal
  // columns, then gathers — unit classes index into the pass bitmaps, and
  // an absent FK hits the sentinel bit, which is always 0 — for the units
  // still passing; then SweepAccumulator does the rest.
  SweepAccumulator acc(plan, q, cells, num_workers);
  auto scan = [&](int worker, int64_t begin, int64_t end) {
    for (int64_t unit = begin; unit < end; unit += 64) {
      const int nbits = static_cast<int>(std::min<int64_t>(64, end - unit));
      // Cell sweeps compare nothing: no call per chunk for them.
      uint64_t mask = nbits == 64 ? ~uint64_t{0} : (uint64_t{1} << nbits) - 1;
      if (num_ranges > 0) {
        mask = kern.ordinal_range_mask(rptr, num_ranges, unit, nbits);
      }
      if (active_dims > 0 && mask != 0) {
        mask &= kern.pass_mask(cptrs, wptrs, active_dims, unit, nbits);
      }
      acc.AddChunk(worker, unit, nbits, mask);
    }
  };
  MorselPool::Shared().Run(num_workers, units, morsel_size, scan);
  return acc.Finalize();
}

Result<double> ContractPlan(const ScanPlan& plan,
                            const std::vector<ContractionAxis>& axes,
                            const std::vector<std::vector<double>>& weights) {
  if (weights.size() != axes.size()) {
    return Status::InvalidArgument(
        Format("%zu weight vectors for %zu axes", weights.size(), axes.size()));
  }
  // The layout, as in Execute: per axis, unit → class (a fact row's class is
  // its dimension row) and class → domain ordinal.
  const bool cells = plan.cells != nullptr;
  std::vector<const int32_t*> unit_class(axes.size());
  std::vector<const int64_t*> ordinals(axes.size());
  for (size_t a = 0; a < axes.size(); ++a) {
    const ContractionAxis& axis = axes[a];
    if (axis.dim >= plan.dims.size() ||
        axis.table >= plan.dims[axis.dim].ordinal_tables.size()) {
      return Status::InvalidArgument(
          Format("axis %zu names no ordinal table of the plan", a));
    }
    const OrdinalTable& t =
        *(cells ? plan.cells->classes[axis.dim] : plan.dims[axis.dim])
             .ordinal_tables[axis.table];
    if (static_cast<int64_t>(weights[a].size()) != t.domain.size()) {
      return Status::InvalidArgument(
          Format("axis %zu has %zu weights for a domain of %lld", a,
                 weights[a].size(), static_cast<long long>(t.domain.size())));
    }
    unit_class[a] = cells ? plan.cells->cell_class[axis.dim].data()
                          : plan.fact_dim_row[axis.dim]->rows.data();
    ordinals[a] = t.ordinals.data();
  }
  // Fact rows whose foreign key misses a dimension belong to no cell; on the
  // row layout they must be skipped before any ordinal lookup.
  std::vector<const JoinColumn*> may_miss;
  if (!cells) {
    for (const auto& column : plan.fact_dim_row) {
      if (column->has_absent_fk) may_miss.push_back(column.get());
    }
  }
  const int64_t units = cells ? plan.cells->num_cells() : plan.fact_rows();
  const double* unit_weight =
      plan.weights == nullptr ? nullptr
      : cells                 ? plan.cells->weights.data()
                              : plan.weights->values.data();
  double sum = 0.0;
  for (int64_t u = 0; u < units; ++u) {
    if (std::any_of(may_miss.begin(), may_miss.end(), [u](const JoinColumn* c) {
          return c->rows[static_cast<size_t>(u)] == c->dim_rows;
        })) {
      continue;
    }
    double w = 1.0;  // a fact row of a COUNT
    if (unit_weight != nullptr) {
      w = unit_weight[u];
    } else if (cells) {
      w = static_cast<double>(plan.cells->counts[static_cast<size_t>(u)]);
    }
    for (size_t a = 0; a < axes.size() && w != 0.0; ++a) {
      const int64_t ordinal = ordinals[a][unit_class[a][u]];
      w = ordinal < 0 ? 0.0 : w * weights[a][static_cast<size_t>(ordinal)];
    }
    sum += w;
  }
  return sum;
}

}  // namespace dpstarj::exec
