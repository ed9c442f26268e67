#include "exec/plan_cache.h"

#include <algorithm>

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

Result<std::shared_ptr<const ScanPlan>> PlanCache::GetOrCompile(
    const query::BoundQuery& q, obs::Trace* trace) {
  const std::string key = PlanKey(q);
  std::shared_ptr<const ScanPlan> append_base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      std::shared_ptr<const ScanPlan> cached = it->second->second;
      if (cached->Matches(q)) {
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        if (trace != nullptr) trace->plan_cache_hit = true;
        return cached;
      }
      // Stale. When only the fact table grew (streaming ingest), keep the
      // entry for now — its scaffold is the input of the tail extension
      // below, and a declined extension drops it then. Anything else is an
      // identity invalidation: nothing is salvageable, drop immediately.
      if (ScanPlan::IsAppendExtension(*cached, q)) {
        append_base = std::move(cached);
      } else {
        bytes_ -= cached->ApproxBytes();
        lru_.erase(it->second);
        index_.erase(it);
        ++stats_.invalidations;
        ++stats_.invalidated_identity;
      }
    }
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
    // A declined extension (NotSupported: the tail does not splice) falls
    // through to a fresh compile; the entry is dropped below.
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
  auto it = index_.find(key);
  if (it != index_.end()) {
    // A racing insert landed first; keep ours only if theirs went stale.
    if (it->second->second->Matches(q)) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    const bool replacing_base = it->second->second == append_base;
    bytes_ -= it->second->second->ApproxBytes();
    lru_.erase(it->second);
    index_.erase(it);
    if (!replacing_base) {
      // Someone else's entry went stale underneath us (not the append base
      // we deliberately left in place) — account it like any invalidation.
      ++stats_.invalidations;
      ++stats_.invalidated_identity;
    }
  }
  lru_.emplace_front(key, plan);
  index_[key] = lru_.begin();
  bytes_ += plan->ApproxBytes();
  // Evict by entry count and by scaffold bytes; the most recent entry always
  // stays so a single oversized plan is still served (it just caches alone).
  while (lru_.size() > 1 &&
         (lru_.size() > capacity_ || bytes_ > max_bytes_)) {
    bytes_ -= lru_.back().second->ApproxBytes();
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return plan;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
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
  return stats;
}

}  // namespace dpstarj::exec
