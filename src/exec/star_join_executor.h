// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// The star-join executor. Every query runs through one path: compile the
// query's predicate-independent ScanPlan (exec/scan_plan.h: FK→row
// resolution, pre-packed group codes and weights, the run-sorted layout),
// rebuild one predicate bitmap per dimension, and sweep the fact table in
// morsels — optionally in parallel — with gathers into those bitmaps,
// accumulating COUNT/SUM per group code and rendering string group labels
// once per group (see exec/group_code.h, exec/parallel.h). Repeated callers
// share compiled plans through exec/plan_cache.h; batches of queries share
// one fact sweep through exec/workload_plan.h. exec/naive_executor.h is the
// independent test oracle.
//
// Both fact sweeps that visit rows in row order — this executor's and the
// workload plan's shared sweep — hand each ≤ 64-row chunk's pass mask to one
// SweepAccumulator (below), so the chunk association is their common
// contract: a scalar COUNT, SUM or AVG answers to the same bits alone and in
// a batch. Fact rows whose foreign key misses its dimension are dropped, as
// in a SQL inner join; Catalog::ValidateIntegrity is the referential-
// integrity check.
//
// The executor accepts *predicate overrides* so that DP mechanisms can run
// the same plan under perturbed predicates (the heart of DP-starJ's input
// perturbation) without re-binding. The DP layer is post-processing-safe, so
// execution strategy (plan reuse, batching, thread count) never changes
// noise semantics — only throughput.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
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

/// \brief Per-dimension predicate replacements, aligned with BoundQuery::dims.
///
/// Entry semantics: nullopt = keep the dimension's own predicates; an engaged
/// vector replaces them wholesale (possibly with a different count, possibly
/// empty = no filtering on that dimension).
using DimPredicateOverride = std::optional<std::vector<query::BoundPredicate>>;
using PredicateOverrides = std::vector<DimPredicateOverride>;

/// \brief Options for the executor.
struct ExecutorOptions {
  /// Worker threads for the fact scan. 1 (default) runs on the calling
  /// thread; 0 means one worker per hardware thread. Results are
  /// deterministic for any fixed value: morsels are statically assigned and
  /// worker partials merge in worker order, so aggregates whose additions are
  /// exact (COUNT, integer-valued SUM) are identical across thread counts,
  /// and inexact floating-point SUMs are reproducible run-to-run.
  int exec_threads = 1;

  /// Rows per scan morsel (parallel granularity). The default is sized to
  /// the detected per-core L2 (exec/parallel.h, DefaultMorselSize).
  int64_t morsel_size = DefaultMorselSize();
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
  /// only the per-dimension predicate bitmaps are rebuilt, and the fact scan
  /// is gathers into them plus the plan's pre-packed codes and weights — the
  /// repeated-noisy-execution fast path of the Predicate Mechanism. The plan
  /// must have been compiled for `q`'s tables (checked; a stale plan is
  /// refused rather than silently mis-answered).
  ///
  /// Exact aggregates (COUNT, integer-valued SUM) are bit-identical to
  /// exec/naive_executor.h at every thread count. Inexact SUMs are
  /// reproducible at a fixed worker count and identical on every ISA
  /// (exec/kernels/kernels.h): the row-order sweep follows
  /// SweepAccumulator's chunk association. Grouped plans with sorted runs
  /// take the run-sorted sweep instead, which sums each group's run in
  /// ≤ 64-row chunks (kernels::SumChunk) in row order, so their sums are
  /// identical at every worker count too.
  ///
  /// A non-null `trace` records the bitmap-rebuild and fact-sweep spans
  /// (obs::Stage::kBitmapRebuild / kScan); execution is unchanged otherwise.
  Result<QueryResult> Execute(const query::BoundQuery& q,
                              const PredicateOverrides& overrides,
                              const ScanPlan& plan,
                              obs::Trace* trace = nullptr) const;

  const ExecutorOptions& options() const { return options_; }

 private:
  ExecutorOptions options_;
};

/// \brief The accumulate step of a row-order fact sweep — everything after a
/// chunk's pass mask is known — shared by StarJoinExecutor and WorkloadPlan.
///
/// One accumulator per query and sweep. Workers hand it their morsels'
/// chunks: ≤ 64 rows each, starting at the morsel's first row, in row order.
/// Each worker adds to its own cache-line-aligned partial: COUNT adds the
/// chunk's popcount, scalar SUM/AVG adds the chunk's sum
/// (kernels::SumChunk), and grouped plans add each passing row to the
/// worker's GroupAccumulator in ascending row order. Finalize merges the
/// partials in worker order. Two sweeps with the same morsel size and worker
/// count therefore add the same terms in the same order.
class SweepAccumulator {
 public:
  SweepAccumulator(const ScanPlan& plan, int num_workers);

  /// Adds the rows of `mask` — bit i set = fact row `base + i` passes, bits
  /// ≥ `nbits` clear — to `worker`'s partial.
  void AddChunk(int worker, int64_t base, int nbits, uint64_t mask) {
    if (mask == 0) return;
    Partial& p = partials_[static_cast<size_t>(worker)];
    if (codes_ == nullptr) {
      const int hits = __builtin_popcountll(mask);
      p.rows += hits;
      p.sum += weights_ == nullptr
                   ? static_cast<double>(hits)
                   : kernels::SumChunk(kern_, weights_, base, nbits, mask);
      return;
    }
    while (mask != 0) {
      const int64_t row = base + __builtin_ctzll(mask);
      mask &= mask - 1;
      p.groups->Add(codes_[row], weights_ != nullptr ? weights_[row] : 1.0);
    }
  }

  /// Merges the partials in worker order and renders `q`'s answer.
  QueryResult Finalize(const query::BoundQuery& q);

 private:
  struct alignas(64) Partial {
    double sum = 0.0;
    int64_t rows = 0;
    std::unique_ptr<GroupAccumulator> groups;  ///< grouped plans only
  };

  const ScanPlan& plan_;
  const kernels::EngineKernels& kern_;
  const double* weights_;  ///< null = COUNT
  const uint64_t* codes_;  ///< null = scalar
  std::vector<Partial> partials_;
};

}  // namespace dpstarj::exec
