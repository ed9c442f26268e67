#include "exec/plan_cache.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/string_util.h"

namespace dpstarj::exec {

namespace {

// Cache key: exactly the things a ScanPlan's scaffold is laid out by —
// tables in the bound query's *internal* join order (fact_dim_row is
// indexed by dim position), the FK/PK column pairing, the GROUP BY layout,
// measure terms in order, and the predicate (column, domain) sets (the
// memoized ordinal tables). Predicate *bounds* are deliberately omitted:
// every field of a plan is bound-independent, so a popular query
// re-filtered with different constants — and every noisy Predicate
// Mechanism re-execution — shares one compiled plan. Within a dimension the
// predicate signatures are sorted, so conjunction order does not split the
// cache. Two queries that differ only in aggregate kind (SUM vs AVG over
// the same measures) also share: the aggregate is applied at execution.
std::string PlanKey(const query::BoundQuery& q) {
  // Tables are identified by *object*, not name, matching ScanPlan::Matches:
  // one cache may serve engines over several catalogs (per-tenant instances
  // with identical schemas), and name-keyed entries would invalidation-
  // thrash between them.
  std::string key = Format("fact:%p", static_cast<const void*>(q.fact.get()));
  std::vector<std::string> pred_sigs;
  for (const auto& d : q.dims) {
    key += Format("|dim:%p@%d/%d", static_cast<const void*>(d.dim.get()),
                  d.fact_fk_col, d.dim_pk_col);
    pred_sigs.clear();
    pred_sigs.reserve(d.predicates.size());
    for (const auto& p : d.predicates) {
      pred_sigs.push_back(Format("%d:", p.column_index) + p.domain.ToString());
    }
    std::sort(pred_sigs.begin(), pred_sigs.end());
    for (const auto& sig : pred_sigs) {
      key += ';';
      key += sig;
    }
  }
  key += "|group:";
  for (const auto& [dim_idx, col] : q.group_key_layout) {
    key += Format("%d.%d,", dim_idx, col);
  }
  key += "|measure:";
  for (const auto& [col, coeff] : q.measure_cols) {
    key += Format("%d*%.17g,", col, coeff);
  }
  return key;
}

}  // namespace

PlanCache::PlanCache(size_t capacity, size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes) {}

void PlanCache::Remove(std::list<Entry>::iterator it, Released& released) {
  bytes_ -= it->plan->ApproxBytes();
  index_.erase(it->key);
  released.push_back(std::move(it->plan));
  lru_.erase(it);
}

void PlanCache::EvictOverflow(Released& released) {
  while (lru_.size() > 1 &&
         (lru_.size() > capacity_ || bytes_ > max_bytes_)) {
    Remove(std::prev(lru_.end()), released);
    ++stats_.evictions;
  }
}

Result<std::shared_ptr<const ScanPlan>> PlanCache::GetOrCompile(
    const query::BoundQuery& q, obs::Trace* trace) {
  const std::string key = PlanKey(q);
  // Declared before every lock below, so dropped plans are freed after it.
  Released released;
  std::shared_ptr<const ScanPlan> append_base;
  std::shared_ptr<const ScanPlan> cell_base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto found = index_.find(key);
    if (found != index_.end()) {
      const auto it = found->second;
      if (it->plan->Matches(q)) {
        lru_.splice(lru_.begin(), lru_, it);
        ++stats_.hits;
        if (trace != nullptr) trace->plan_cache_hit = true;
        if (it->cells_decided || it->plan->numbered_codes) return it->plan;
        // The first validated hit decides the plan's cells, below.
        it->cells_decided = true;
        cell_base = it->plan;
      } else if (ScanPlan::IsAppendExtension(*it->plan, q)) {
        // Stale, but only the fact table grew (streaming ingest): keep the
        // entry for now — its scaffold is the input of the tail extension
        // below, and a declined extension drops it then.
        append_base = it->plan;
      } else {
        // Any other staleness: nothing is salvageable, drop immediately.
        Remove(it, released);
        ++stats_.invalidations;
        ++stats_.invalidated_identity;
      }
    }
  }

  // Cells are built outside the lock and published like an extension. The
  // hit is already counted; a decline leaves the plan on its fact rows.
  if (cell_base != nullptr) {
    Result<ScanPlan> with_cells = [&] {
      obs::ScopedStage cells_span(trace, obs::Stage::kPlanCells);
      return ScanPlan::WithCells(*cell_base, q,
                                 ScanPlan::CellLimit(cell_base->fact_rows()));
    }();
    std::lock_guard<std::mutex> lock(mu_);
    if (!with_cells.ok()) {
      ++stats_.cell_declines;
      return cell_base;
    }
    ++stats_.cell_builds;
    auto plan = std::make_shared<const ScanPlan>(std::move(*with_cells));
    auto found = index_.find(key);
    // Unless an extension or eviction replaced the entry meanwhile.
    if (found != index_.end() && found->second->plan == cell_base) {
      bytes_ = bytes_ - cell_base->ApproxBytes() + plan->ApproxBytes();
      released.push_back(std::exchange(found->second->plan, plan));
      EvictOverflow(released);
    }
    return plan;
  }

  // Extend / compile outside the lock: both scan fact data and must not
  // serialize concurrent engines behind the cache mutex.
  std::shared_ptr<const ScanPlan> plan;
  bool extended = false;
  if (append_base != nullptr) {
    obs::ScopedStage extend_span(trace, obs::Stage::kPlanExtend);
    auto ext = ScanPlan::ExtendFrom(*append_base, q, columns_);
    if (ext.ok()) {
      plan = std::make_shared<const ScanPlan>(std::move(*ext));
      extended = true;
    }
    // A declined extension (NotSupported: the tail does not fit the
    // compiled layout) falls through to a fresh compile; the entry is
    // dropped below.
  }
  if (!extended) {
    obs::ScopedStage compile_span(trace, obs::Stage::kPlanCompile);
    DPSTARJ_ASSIGN_OR_RETURN(ScanPlan compiled,
                             ScanPlan::Compile(q, columns_));
    plan = std::make_shared<const ScanPlan>(std::move(compiled));
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (extended) {
    // The scaffold was reused, so this is a hit for ratio purposes — just
    // one that produced a new shared plan object.
    ++stats_.hits;
    ++stats_.extends;
    if (trace != nullptr) trace->plan_cache_hit = true;
  } else {
    ++stats_.misses;
    if (append_base != nullptr) {
      ++stats_.invalidations;
      ++stats_.invalidated_append;
    }
  }
  if (capacity_ == 0) return plan;
  auto found = index_.find(key);
  if (found != index_.end()) {
    const auto it = found->second;
    // A racing insert landed first; keep ours only if theirs went stale.
    if (it->plan->Matches(q)) {
      lru_.splice(lru_.begin(), lru_, it);
      return it->plan;
    }
    const bool replacing_base = it->plan == append_base;
    Remove(it, released);
    if (!replacing_base) {
      // Someone else's entry went stale underneath us (not the append base
      // we deliberately left in place) — account it like any invalidation.
      ++stats_.invalidations;
      ++stats_.invalidated_identity;
    }
  }
  // An extension keeps its cells; any other new plan decides at its next hit.
  lru_.push_front(Entry{key, plan, /*cells_decided=*/plan->cells != nullptr});
  index_[key] = lru_.begin();
  bytes_ += plan->ApproxBytes();
  EvictOverflow(released);
  return plan;
}

void PlanCache::Clear() {
  std::list<Entry> dropped;  // freed after the lock is released
  std::lock_guard<std::mutex> lock(mu_);
  dropped.swap(lru_);
  index_.clear();
  bytes_ = 0;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats = stats_;
  }
  const PlanColumnStore::Stats columns = columns_.GetStats();
  stats.column_builds = columns.builds;
  stats.column_reuses = columns.reuses;
  stats.column_copies = columns.copies;
  return stats;
}

}  // namespace dpstarj::exec
