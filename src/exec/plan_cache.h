// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// PlanCache — a thread-safe LRU of compiled ScanPlans keyed by a canonical
// *execution signature* of the bound query: the joined tables in bound
// order, FK/PK pairing, GROUP BY layout, measure terms, and the predicate
// (column, domain) sets — with predicate conjunction order normalized away,
// like query::CanonicalKey, but with ε and the predicate *bounds* omitted.
// A plan is pure bound-independent scaffolding, so one entry serves every
// privacy budget, every tenant replaying the query, every re-filtering of
// it with different constants, and every noisy Predicate Mechanism
// re-execution.
//
// Invalidation: tables are append-only, so a plan is stale exactly when one
// of its tables is no longer the same object or has grown. Every hit is
// validated with ScanPlan::Matches before use; callers can never execute
// against a stale scaffold. A stale entry whose only change is fact-table
// growth (streaming ingest) is *extended* in place via ScanPlan::ExtendFrom
// — tail-only work instead of a full recompile — and only dropped when the
// extension is declined (e.g. a fact group key outgrew its packed field).
// The tail is appended into the plan's fact-row arrays and only the cell
// labels it brings are rendered, so an extension costs O(tail + cells),
// plus one array copy per capacity doubling (Stats::column_copies). Any
// other staleness (a table object replaced, a dimension grew) drops the
// entry and recompiles; the two classes are counted separately. The service
// layer shares one PlanCache across all pool engines (see
// service/query_service.h).
//
// Cells: a plan's first validated hit builds its cell layout
// (ScanPlan::WithCells) when the dense cell index is at most half its fact
// rows, and publishes the plan with cells the way an extension is
// published. The build is not done at compile: most compiled plans of an
// ad-hoc stream never run twice, and a build costs several fact sweeps. An
// extension keeps a plan's cells; a plan without them (compiled, declined,
// or extended from one without) is considered again at its next hit. Plans
// with numbered group codes are never considered.
//
// Plans leave the cache — evicted, invalidated, replaced or cleared — under
// the cache mutex but are freed after it is released, so no lookup waits
// behind a multi-MB free.
//
// The cache also owns the PlanColumnStore its plans compile against, so
// every cached plan over one FK edge points at one join column, every plan
// over one measure at one weight column, every plan filtering one dimension
// column over one domain at one ordinal table (and, while it has no cells,
// at one ordinal column), and every plan grouping one dimension by the same
// columns at one group-ordinal table: a compile for a new signature
// resolves no fact row and numbers no dimension column that another plan
// still holds, and after an ingest the first extension of an edge resolves
// its tail for all of them.

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/scan_plan.h"
#include "obs/trace.h"
#include "query/binder.h"

namespace dpstarj::exec {

/// \brief Thread-safe canonical-keyed LRU of compiled scan plans.
class PlanCache {
 public:
  /// Default entry capacity. Plans hold per-fact-row scaffolds — up to
  /// ≈ 10 + 4·dims bytes per fact row for grouped SUM queries with cells:
  /// at most 2 for the dense cell index (≤ half a 4-byte slot per row), and
  /// 8 + 4·dims for the join and weight columns shared with other plans (a
  /// packed plan stores no group code per row; a plan whose key tuples are
  /// numbered stores 8 per row instead of cells); the cells themselves
  /// number at most half the fact rows and are usually far fewer. While a
  /// plan has no cells it holds instead 1 or 2 bytes per fact row per
  /// predicate column (its ordinal columns, shared too). Add, per dimension
  /// row, 8 bytes per predicate column's ordinal table and 4 for group
  /// ordinals, also shared — so eviction is governed by a byte budget as
  /// well as this entry cap; popular queries dominate hits long before
  /// either matters. The budget counts the fact rows a plan covers,
  /// not the spare capacity an extended plan's arrays reserve, and it
  /// counts shared columns and tables in full in every plan that references
  /// them, so it bounds the resident bytes from above.
  static constexpr size_t kDefaultCapacity = 32;
  /// Default scaffold-byte budget across all cached plans (LRU entries are
  /// evicted past it; the most recent plan is always kept).
  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MB

  /// Hit/miss/invalidation accounting, as returned by GetStats().
  struct Stats {
    uint64_t hits = 0;    ///< validated hits, extends included
    uint64_t misses = 0;  ///< lookups that compiled a fresh plan
    /// Append-stale entries revalidated by ScanPlan::ExtendFrom (each also
    /// counts as a hit: the cached scaffold was reused, not recompiled).
    uint64_t extends = 0;
    /// Stale entries dropped — always invalidated_append +
    /// invalidated_identity.
    uint64_t invalidations = 0;
    /// The fact table grew but the tail could not be spliced (packed group
    /// field overflow, or the plan numbers its group-key tuples).
    uint64_t invalidated_append = 0;
    /// A table object was replaced or a dimension changed size — nothing of
    /// the scaffold is salvageable.
    uint64_t invalidated_identity = 0;
    uint64_t evictions = 0;
    /// Join and weight columns built (from scratch, or over an old column
    /// when a plan extends) vs requests served by a live column that another
    /// plan holds. Reuses over builds is the column store's hit ratio for
    /// fact-sized columns; the shared ordinal tables and group ordinals,
    /// which are dimension-sized, are not counted.
    uint64_t column_builds = 0;
    uint64_t column_reuses = 0;
    /// Extensions of a join or weight column that copied it instead of
    /// appending in place: once per capacity doubling of each column while
    /// extensions keep up with ingest, not once per ingest.
    uint64_t column_copies = 0;
    /// First validated hits that built the plan's cells vs those the size
    /// rule (dense cell index > fact rows / 2) kept on the fact rows.
    uint64_t cell_builds = 0;
    uint64_t cell_declines = 0;

    /// hits / (hits + misses), 0 when empty.
    double HitRate() const {
      uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };

  /// A capacity of 0 disables caching (every call compiles a fresh plan).
  explicit PlanCache(size_t capacity = kDefaultCapacity,
                     size_t max_bytes = kDefaultMaxBytes);

  /// \brief Returns the cached plan for `q`'s execution signature: a
  /// validated hit when fresh (the first one builds the plan's cells), an
  /// incremental extension when only the fact table grew, and a full
  /// compile otherwise. Cell builds, extension and compilation all run
  /// outside the cache lock; two threads racing on the same cold key may
  /// both compile, and the first insert wins: the later caller drops its
  /// plan and returns the cached one — wasted work, never wrong results.
  /// Their columns race the same way and end up shared. Only one hit per
  /// plan builds cells; concurrent hits meanwhile get the plan without them.
  ///
  /// A non-null `trace` gets `plan_cache_hit` set on a validated hit or a
  /// successful extension, the cell build span (obs::Stage::kPlanCells)
  /// recorded on the hit that builds or declines cells, the extend span
  /// (obs::Stage::kPlanExtend) recorded on the extension path, and the
  /// compile span (obs::Stage::kPlanCompile) recorded on a miss.
  Result<std::shared_ptr<const ScanPlan>> GetOrCompile(
      const query::BoundQuery& q, obs::Trace* trace = nullptr);

  /// Drops every entry (stats are preserved), freeing them after the lock is
  /// released. A column dies with the last plan referencing it, cached or
  /// held by a caller.
  void Clear();

  /// Current entry count.
  size_t size() const;
  /// Approximate scaffold bytes currently cached.
  size_t bytes() const;
  /// Configured capacity.
  size_t capacity() const { return capacity_; }

  /// A consistent snapshot of the accounting counters.
  Stats GetStats() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const ScanPlan> plan;
    /// A validated hit has built or declined this plan's cells (or is
    /// building them now).
    bool cells_decided = false;
  };
  /// Plans dropped under mu_, freed by the caller after unlocking.
  using Released = std::vector<std::shared_ptr<const ScanPlan>>;

  /// Unlinks `it` from the LRU and index into `released`. Requires mu_.
  void Remove(std::list<Entry>::iterator it, Released& released);
  /// Evicts LRU entries past the entry cap or byte budget into `released`;
  /// the most recent entry always stays, so a single oversized plan is still
  /// served (it just caches alone). Requires mu_.
  void EvictOverflow(Released& released);

  mutable std::mutex mu_;
  size_t capacity_;
  size_t max_bytes_;
  size_t bytes_ = 0;  ///< Σ ApproxBytes() over cached plans
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;  ///< column counters live in columns_
  PlanColumnStore columns_;
};

}  // namespace dpstarj::exec
