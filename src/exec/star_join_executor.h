// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The star-join executor. Every query runs through one path: compile the
// query's predicate-independent ScanPlan (exec/scan_plan.h: FK→row
// resolution, weights, group ordinals, and once the plan is reused its
// cells), rebuild one predicate bitmap per dimension, and run one sweep over
// one of the plan's two *layouts*:
//
//   * the fact rows — the trivial layout: a row's class in a dimension is
//     its dimension row, and each row counts once; a grouped sweep packs
//     each passing row's group code from its join-column entries and
//     fact-side keys (ScanPlan::GroupCodes). Swept in morsels, optionally in
//     parallel;
//   * the plan's cells (ScanPlan::CellsServe says when they serve) — one
//     bit per class in each dimension's bitmap, and each cell carries its
//     row count, weight sum and pre-rendered label slot. Cells are few, so
//     they are swept as one morsel on the calling thread.
//
// The sweep tests units in ≤ 64-unit chunks. On the fact rows, a dimension
// whose effective predicates all have an ordinal column (a fact-aligned
// byte or two per row, exec/scan_plan.h OrdinalColumn) is a *compare*
// dimension: its columns are compared against the predicates' [lo, hi]
// (kernels ordinal_range_mask). Every other dimension — a predicate the
// plan has no column for, such as an override on another column, or a
// domain over 65,535 values — and every dimension of a cell sweep is a
// *gather* dimension: each unit's class is looked up in its bitmap (kernels
// pass_mask), for the units the compares left passing. Both pass exactly the
// same units, and a dimension whose bitmap passes everything, when no unit
// can miss it, takes no part. Each chunk's pass mask goes to one
// SweepAccumulator (below; see exec/group_code.h, exec/parallel.h). Repeated callers share
// compiled plans through exec/plan_cache.h, and a batch answers each of its
// entries with its own Execute (core/predicate_mechanism.h AnswerBatch).
// ContractPlan, below, reads the same two layouts for Workload
// Decomposition. exec/naive_executor.h is the independent test oracle.
//
// Association contract. A row-layout sweep adds each chunk's terms
// (kernels::SumChunk) in chunk order per worker, then merges the workers in
// worker order. A cell sweep adds each cell's weight sum, itself summed in
// fact-row order, chunk by chunk in cell order. So COUNT and integer-valued
// SUMs are exact either way, while a double SUM or AVG answered from cells
// differs from the row-layout answer in its low bits only. A cell answer
// depends on the plan and the predicates alone — not on the thread count or
// morsel size. Fact rows whose foreign key misses its dimension are
// dropped, as in a SQL inner join; Catalog::ValidateIntegrity is the
// referential-integrity check.
//
// The executor accepts *predicate overrides* (exec/scan_plan.h) so that DP
// mechanisms can run the same plan under perturbed predicates (the heart of
// DP-starJ's input perturbation) without re-binding. The DP layer is
// post-processing-safe, so execution strategy (plan reuse, layout,
// batching, thread count) never changes noise semantics — only throughput.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/group_code.h"
#include "exec/kernels/kernels.h"
#include "exec/parallel.h"
#include "exec/query_result.h"
#include "exec/scan_plan.h"
#include "obs/trace.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief Options for the executor.
struct ExecutorOptions {
  /// Worker threads for the fact scan. 1 (default) runs on the calling
  /// thread; 0 means one worker per hardware thread. Results are
  /// deterministic for any fixed value: morsels are statically assigned and
  /// worker partials merge in worker order, so aggregates whose additions are
  /// exact (COUNT, integer-valued SUM) are identical across thread counts,
  /// and inexact floating-point SUMs are reproducible run-to-run. Cell
  /// sweeps always run on the calling thread.
  int exec_threads = 1;

  /// Rows per scan morsel (parallel granularity). The default is sized to
  /// the detected per-core L2 (exec/parallel.h, DefaultMorselSize).
  int64_t morsel_size = DefaultMorselSize();
};

/// \brief What a run of plan executions swept — the `/v1/workload`
/// receipts (core/predicate_mechanism.h AnswerBatch). Execute adds to it.
struct WorkloadExecStats {
  int64_t queries = 0;  ///< executions, one sweep each
  /// Fact-row sweeps: one per query whose plan's cells do not serve it.
  int64_t scans = 0;
  int64_t cell_sweeps = 0;  ///< sweeps of a plan's cells
  /// Predicate bitmaps built: one per dimension of every query.
  int64_t predicate_nodes = 0;
};

/// \brief Star-join evaluation over compiled ScanPlans.
class StarJoinExecutor {
 public:
  explicit StarJoinExecutor(ExecutorOptions options = {}) : options_(options) {}

  /// Evaluates the query as bound: compiles a one-off ScanPlan and runs it.
  Result<QueryResult> Execute(const query::BoundQuery& q) const;

  /// Evaluates with per-dimension predicate overrides (for DP mechanisms):
  /// compiles a one-off ScanPlan and runs it. Callers answering the same
  /// query repeatedly should keep the plan (exec/plan_cache.h) instead.
  Result<QueryResult> Execute(const query::BoundQuery& q,
                              const PredicateOverrides& overrides) const;

  /// \brief Evaluates against a pre-compiled ScanPlan (see exec/scan_plan.h):
  /// only the per-dimension predicate bitmaps are rebuilt, and the sweep is
  /// range compares over the plan's ordinal columns or gathers into the
  /// bitmaps, plus the layout's weights and group keys — the
  /// repeated-noisy-execution fast path of the Predicate Mechanism. The
  /// plan's cells are swept when they serve `q` under `overrides`, its fact
  /// rows otherwise. The plan must have been compiled for `q`'s tables
  /// (checked; a stale plan is refused rather than silently mis-answered).
  ///
  /// Exact aggregates (COUNT, integer-valued SUM) are bit-identical to
  /// exec/naive_executor.h at every thread count, from either layout.
  /// Inexact SUMs follow the association contract above: reproducible at a
  /// fixed worker count (cells: always) and identical on every ISA
  /// (exec/kernels/kernels.h).
  ///
  /// A non-null `trace` records the bitmap-rebuild and fact-sweep spans
  /// (obs::Stage::kBitmapRebuild / kScan), and a non-null `stats` counts
  /// the sweep and its bitmaps; execution is unchanged otherwise.
  Result<QueryResult> Execute(const query::BoundQuery& q,
                              const PredicateOverrides& overrides,
                              const ScanPlan& plan, obs::Trace* trace = nullptr,
                              WorkloadExecStats* stats = nullptr) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  ExecutorOptions options_;
};

/// \brief One axis of ContractPlan: dimension `dim` of a plan and its
/// memoized ordinal table `table` (PlanDim::ordinal_tables).
struct ContractionAxis {
  size_t dim = 0;
  size_t table = 0;
};

/// \brief The weighted contraction of Workload Decomposition against W
/// (paper Eq. 11): Σ over the plan's units — its cells when it has them,
/// else its fact rows — of the unit's weight (COUNT: its row count; SUM: its
/// weight sum) × Π_a weights[a][the unit's ordinal on axes[a]]. A unit whose
/// value lies outside an axis's domain contributes nothing, and neither does
/// a fact row whose foreign key misses its dimension. Runs on the calling
/// thread. Fails when `weights` and `axes` differ in arity, when an axis
/// names no memoized table of the plan, or when a weight vector's size is
/// not its axis's domain size.
Result<double> ContractPlan(const ScanPlan& plan,
                            const std::vector<ContractionAxis>& axes,
                            const std::vector<std::vector<double>>& weights);

/// \brief The accumulate step of a sweep — everything after a chunk's pass
/// mask is known — shared by StarJoinExecutor and the SweepPlanRows test
/// helper (tests/test_catalog.h).
///
/// One accumulator per query and sweep, over one layout of its plan: the fact
/// rows, or the plan's cells. Workers hand it their morsels' chunks: ≤ 64
/// units each, starting at the morsel's first unit, in unit order. Each
/// worker adds to its own cache-line-aligned partial: the chunk's row count
/// (popcount, or the passing cells' counts), for SUM/AVG the chunk's weight
/// sum (kernels::SumChunk), and for grouped plans each passing unit in
/// ascending order — a row to the worker's GroupAccumulator by the group
/// code ScanPlan::GroupCodes packs for the chunk's passing rows, a cell to
/// its pre-rendered label slot. Finalize merges the partials in
/// worker order. Two sweeps of one layout with the same morsel size and
/// worker count therefore add the same terms in the same order.
class SweepAccumulator {
 public:
  /// Accumulates a sweep of `q` over `plan`'s fact rows, or over its cells
  /// when `cells` (the plan must have them). `q` must be bound like the plan
  /// and outlive the accumulator: a grouped row sweep reads its fact-side
  /// keys, of the plan's rows only.
  SweepAccumulator(const ScanPlan& plan, const query::BoundQuery& q, bool cells,
                   int num_workers);

  /// Adds the units of `mask` — bit i set = unit `base + i` passes, bits
  /// ≥ `nbits` clear — to `worker`'s partial.
  void AddChunk(int worker, int64_t base, int nbits, uint64_t mask) {
    if (mask == 0) return;
    Partial& p = partials_[static_cast<size_t>(worker)];
    if (!grouped_) {
      if (counts_ == nullptr) {
        p.rows += __builtin_popcountll(mask);
      } else {
        for (uint64_t m = mask; m != 0; m &= m - 1) {
          p.rows += counts_[base + __builtin_ctzll(m)];
        }
      }
      if (weights_ != nullptr) {
        p.sum += kernels::SumChunk(kern_, weights_, base, nbits, mask);
      }
      return;
    }
    if (!cells_) {
      int64_t rows[64];
      size_t n = 0;
      for (uint64_t m = mask; m != 0; m &= m - 1) {
        rows[n++] = base + __builtin_ctzll(m);
      }
      uint64_t codes[64];
      plan_.GroupCodes(q_, rows, n, codes);
      for (size_t k = 0; k < n; ++k) {
        p.groups->Add(codes[k], weights_ != nullptr ? weights_[rows[k]] : 1.0);
      }
      return;
    }
    while (mask != 0) {
      const int64_t unit = base + __builtin_ctzll(mask);
      mask &= mask - 1;
      GroupAgg& agg = p.slot_aggs[static_cast<size_t>(slots_[unit])];
      agg.rows += counts_[unit];
      agg.sum += weights_ != nullptr ? weights_[unit]
                                     : static_cast<double>(counts_[unit]);
    }
  }

  /// Merges the partials in worker order and renders the answer.
  QueryResult Finalize();

 private:
  struct alignas(64) Partial {
    double sum = 0.0;  ///< SUM/AVG only; a COUNT is `rows`
    int64_t rows = 0;
    std::unique_ptr<GroupAccumulator> groups;  ///< grouped rows
    std::vector<GroupAgg> slot_aggs;           ///< grouped cells: per slot
  };

  const ScanPlan& plan_;
  const query::BoundQuery& q_;
  const kernels::EngineKernels& kern_;
  const bool grouped_;
  const bool cells_;
  const double* weights_;   ///< null = COUNT
  const int64_t* counts_;   ///< null = one row per unit (fact rows)
  const int32_t* slots_;    ///< grouped cells: unit → label slot
  std::vector<Partial> partials_;
};

}  // namespace dpstarj::exec
