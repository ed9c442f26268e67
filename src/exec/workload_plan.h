// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// WorkloadPlan — shared-scan batch execution of a *set* of warm star-join
// queries over the same fact table, with cross-query predicate
// common-subexpression elimination (CSE).
//
// The Predicate Mechanism answers workload queries one at a time, so a
// 16-query SSB workload pays 16 full fact sweeps and rebuilds the same
// dimension bitmaps repeatedly even when every query filters the same
// `Supplier.region` range. This compiler amortizes both costs:
//
//   1. Every item's per-dimension effective predicates (its own, or the DP
//      layer's perturbed overrides) are canonicalized — sorted by
//      (column, kind, bounds) — and interned into a DAG of *predicate
//      nodes*. Two queries filtering a dimension identically share one node,
//      and each node's pass bitmap is built exactly once per batch
//      (exec/scan_plan.h BuildPassBitmap). A dimension joined without
//      predicates interns the empty list: one all-ones "join presence"
//      bitmap per dimension slot.
//   2. Dimension *slots* — distinct (dimension table, fact FK column) pairs —
//      share one FK→dimension-row gather array from the first owning item's
//      ScanPlan, so N queries joining Date probe its resolved rows once per
//      fact row, not N times.
//   3. The fact table is swept **once**: each morsel gathers every slot's
//      verdicts from byte tables — eight nodes to a table, one byte per
//      dimension row, so a slot costs one gather per eight nodes however
//      many items reference them — transposes them into per-node verdict
//      words, ANDs each item's words, and hands every item's ≤ 64-row
//      chunks to its own SweepAccumulator (exec/star_join_executor.h): the
//      accumulate step of the single-query row sweep. A row-swept item
//      therefore answers bit-identically to one-at-a-time execution on the
//      same plan, overrides and ExecutorOptions.
//   4. An item whose plan has cells that serve its predicates
//      (ScanPlan::CellsServe) skips the shared sweep: it is answered by the
//      single-query cell sweep itself (StarJoinExecutor::Execute), which
//      touches its plan's cells instead of the fact rows. Its answer is the
//      single-query answer bit for bit, too.
//
// Design exemplar: IronBee's Predicate system (rule predicates as expression
// DAGs with cross-rule subexpression merging at configuration time); see
// ROADMAP "Workload compiler".
//
// DP semantics: the compiler runs strictly *after* predicate perturbation
// and only changes the execution strategy, never the noisy predicate values
// — DP-starJ's guarantees are post-processing-closed, so batching N queries
// into one scan yields answers distributed identically to N separate scans.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/query_result.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "obs/trace.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief One query of a batch: the bound query, the effective predicates
/// (nullptr = the query's own), and its warm ScanPlan scaffold.
struct WorkloadItem {
  const query::BoundQuery* query = nullptr;
  /// Per-dimension predicate replacements, aligned with query->dims; nullptr
  /// or an unengaged entry keeps the dimension's own predicates. The pointed-
  /// to overrides must outlive the WorkloadPlan (predicate values are copied
  /// at Compile, but callers conventionally keep them alive anyway).
  const PredicateOverrides* overrides = nullptr;
  /// Scaffold from ScanPlan::Compile / PlanCache::GetOrCompile. Must match
  /// the query's tables.
  std::shared_ptr<const ScanPlan> plan;
};

/// \brief What the batch compiler actually shared — the CSE receipts.
struct WorkloadExecStats {
  int64_t queries = 0;  ///< items executed through the batch path
  /// Shared fact-row sweeps: one per fact table with a row-swept item.
  int64_t scans = 0;
  /// Items answered from their plan's cells, each by its own cell sweep.
  int64_t cell_sweeps = 0;
  int64_t predicate_refs = 0;  ///< (item, dimension) predicate references
  /// Bitmap builds (≤ predicate_refs): one per deduped node of the shared
  /// row sweeps, plus one per dimension of each cell-swept item (class
  /// bitmaps belong to one plan, so they are not shared).
  int64_t predicate_nodes = 0;
  int64_t shared_dim_slots = 0;  ///< distinct (dim table, FK column) slots
};

/// \brief Compiled shared-scan plan for a batch of warm queries.
///
/// Immutable after Compile; Execute is const and safe to call repeatedly or
/// concurrently (each call owns its bitmaps and accumulators).
class WorkloadPlan {
 public:
  /// \brief Compiles a batch. Items may span multiple fact tables (each fact
  /// table gets its own shared sweep); every item needs a matching ScanPlan.
  static Result<WorkloadPlan> Compile(std::vector<WorkloadItem> items);

  /// \brief Builds each predicate node's bitmap once (obs::Stage::
  /// kBitmapRebuild), then sweeps each fact table once accumulating all
  /// row-swept items simultaneously (obs::Stage::kScan), then answers the
  /// cell-swept items one by one (both stages again). Returns one
  /// QueryResult per item, in item order.
  ///
  /// Every answer is bit-identical to StarJoinExecutor::Execute with the
  /// same plan, overrides and `options`.
  Result<std::vector<QueryResult>> Execute(const ExecutorOptions& options,
                                           obs::Trace* trace = nullptr) const;

  const WorkloadExecStats& stats() const { return stats_; }

 private:
  /// One shared FK→dimension-row gather: a distinct (dimension table,
  /// fact FK column) pair within one fact table's sweep.
  struct Slot {
    const storage::Table* dim_table = nullptr;
    int fact_fk_col = -1;
    size_t item_idx = 0;  ///< item whose plan supplies the gather array
    size_t dim_idx = 0;   ///< dimension index within that item's plan
    int32_t sentinel = 0;  ///< absent-FK row id (= dimension row count)
  };

  /// One deduped predicate bitmap: a slot plus a canonicalized effective
  /// predicate list (empty = join presence, all rows pass).
  struct Node {
    size_t slot = 0;      ///< group-local slot index
    size_t item_idx = 0;  ///< first-occurrence item — its PlanDim memoizes
    size_t dim_idx = 0;   ///< the ordinal tables this node evaluates against
    std::vector<query::BoundPredicate> preds;
  };

  /// Per-item wiring inside its scan group.
  struct ItemWiring {
    size_t item_idx = 0;           ///< index into items_
    std::vector<uint32_t> nodes;   ///< group-local node per query dimension
  };

  /// All items sharing one fact table: one morsel sweep.
  struct ScanGroup {
    const storage::Table* fact = nullptr;
    int64_t fact_rows = 0;
    std::vector<Slot> slots;
    std::vector<Node> nodes;
    std::vector<ItemWiring> wiring;
  };

  std::vector<WorkloadItem> items_;
  std::vector<ScanGroup> groups_;
  std::vector<size_t> cell_items_;  ///< items answered from their cells
  WorkloadExecStats stats_;
};

}  // namespace dpstarj::exec
