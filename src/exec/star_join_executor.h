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
// The executor accepts *predicate overrides* so that DP mechanisms can run
// the same plan under perturbed predicates (the heart of DP-starJ's input
// perturbation) without re-binding. The DP layer is post-processing-safe, so
// execution strategy (plan reuse, batching, thread count) never changes
// noise semantics — only throughput.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
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
  /// When true, fact rows whose foreign key misses the dimension hash table
  /// are an error (they violate referential integrity). When false they are
  /// silently dropped, matching SQL inner-join semantics.
  bool strict_integrity = false;

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
  /// exec/naive_executor.h at every thread count; inexact grouped SUMs
  /// follow the plan's run-sorted sweep, which associates each group's
  /// additions in a fixed chunked order (≤64-row chunks in row order;
  /// all-pass chunks accumulate in the kernel layer's pinned four-lane
  /// split — see exec/kernels/kernels.h) that is identical at every worker
  /// count and on every ISA. Under strict integrity the first absent FK in
  /// scan order is reported with its row, key and dimension.
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

/// \brief Renders a merged plan-path group accumulator into a QueryResult:
/// labels are rendered once per group (ScanPlan::RenderLabel) and merged by
/// rendered label, since distinct codes can format identically. Shared by
/// the executor's probing sweep and the shared-scan batch path
/// (exec/workload_plan.h).
QueryResult RenderPlanGroups(const query::BoundQuery& q, const ScanPlan& plan,
                             const GroupAccumulator& merged, bool is_avg);

}  // namespace dpstarj::exec
