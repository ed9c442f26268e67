#include "exec/workload_plan.h"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "common/string_util.h"
#include "exec/kernels/kernels.h"
#include "exec/parallel.h"

namespace dpstarj::exec {

namespace {

// The item's overrides; null means none.
const PredicateOverrides& ItemOverrides(const WorkloadItem& it) {
  static const PredicateOverrides kNone;
  return it.overrides != nullptr ? *it.overrides : kNone;
}

// Canonical order for interning: two queries listing the same predicates in
// different order still share one node. Evaluation is an AND across the
// list, so reordering never changes the bitmap.
void CanonicalizePreds(std::vector<query::BoundPredicate>* preds) {
  std::sort(preds->begin(), preds->end(),
            [](const query::BoundPredicate& a, const query::BoundPredicate& b) {
              return std::tie(a.column_index, a.lo_index, a.hi_index) <
                     std::tie(b.column_index, b.lo_index, b.hi_index);
            });
}

// Structural equality of two canonicalized lists. Predicate kind is ignored:
// evaluation depends only on (column, domain, lo, hi), so a Point and a
// degenerate Range with equal bounds are the same node.
bool SamePredList(const std::vector<query::BoundPredicate>& a,
                  const std::vector<query::BoundPredicate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t p = 0; p < a.size(); ++p) {
    if (a[p].column_index != b[p].column_index ||
        a[p].lo_index != b[p].lo_index || a[p].hi_index != b[p].hi_index ||
        !(a[p].domain == b[p].domain)) {
      return false;
    }
  }
  return true;
}

// Up to eight nodes of one slot: one byte per dimension row whose bit k is
// node k's verdict on that row.
struct ByteTable {
  const int32_t* fact_dim_row = nullptr;  ///< the slot's gather array
  uint32_t nodes[8] = {};                 ///< group-local node of bit k
  size_t num_nodes = 0;
  std::vector<uint8_t> verdicts;
};

}  // namespace

Result<WorkloadPlan> WorkloadPlan::Compile(std::vector<WorkloadItem> items) {
  if (items.empty()) {
    return Status::InvalidArgument("workload batch is empty");
  }
  WorkloadPlan wp;
  wp.items_ = std::move(items);
  wp.stats_.queries = static_cast<int64_t>(wp.items_.size());

  for (size_t k = 0; k < wp.items_.size(); ++k) {
    const WorkloadItem& it = wp.items_[k];
    if (it.query == nullptr || it.plan == nullptr) {
      return Status::InvalidArgument(
          Format("workload item %zu is missing its query or plan", k));
    }
    if (!it.plan->Matches(*it.query)) {
      return Status::InvalidArgument(
          Format("scan plan is stale for workload item %zu (a table changed "
                 "since compile); recompile via PlanCache::GetOrCompile",
                 k));
    }
    if (it.overrides != nullptr && !it.overrides->empty() &&
        it.overrides->size() != it.query->dims.size()) {
      return Status::InvalidArgument(
          Format("workload item %zu: override arity %zu != dimension count %zu",
                 k, it.overrides->size(), it.query->dims.size()));
    }

    // Items whose cells serve them take the single-query cell sweep; the
    // rest join their fact table's shared row sweep.
    wp.stats_.predicate_refs += static_cast<int64_t>(it.query->dims.size());
    if (it.plan->CellsServe(*it.query, ItemOverrides(it))) {
      wp.cell_items_.push_back(k);
      wp.stats_.cell_sweeps += 1;
      wp.stats_.predicate_nodes += static_cast<int64_t>(it.query->dims.size());
      continue;
    }

    // One scan group per distinct fact table, in first-occurrence order.
    const storage::Table* fact = it.query->fact.get();
    ScanGroup* g = nullptr;
    for (auto& group : wp.groups_) {
      if (group.fact == fact) {
        g = &group;
        break;
      }
    }
    if (g == nullptr) {
      wp.groups_.emplace_back();
      g = &wp.groups_.back();
      g->fact = fact;
      g->fact_rows = it.plan->fact_rows();
    }
    if (g->fact_rows != it.plan->fact_rows()) {
      return Status::InvalidArgument(
          Format("workload item %zu: fact row count disagrees with an earlier "
                 "item's plan (table changed mid-batch)",
                 k));
    }

    ItemWiring w;
    w.item_idx = k;
    w.nodes.reserve(it.query->dims.size());
    for (size_t i = 0; i < it.query->dims.size(); ++i) {
      const query::DimBinding& d = it.query->dims[i];
      const int32_t sentinel = it.plan->dims[i].num_rows;

      // Intern the (dimension table, FK column) slot.
      size_t slot = g->slots.size();
      for (size_t s = 0; s < g->slots.size(); ++s) {
        if (g->slots[s].dim_table == d.dim.get() &&
            g->slots[s].fact_fk_col == d.fact_fk_col) {
          slot = s;
          break;
        }
      }
      if (slot == g->slots.size()) {
        Slot s;
        s.dim_table = d.dim.get();
        s.fact_fk_col = d.fact_fk_col;
        s.item_idx = k;
        s.dim_idx = i;
        s.sentinel = sentinel;
        g->slots.push_back(s);
        wp.stats_.shared_dim_slots += 1;
      } else if (g->slots[slot].sentinel != sentinel) {
        return Status::InvalidArgument(
            Format("workload item %zu: dimension '%s' row count disagrees "
                   "with an earlier item's plan (table changed mid-batch)",
                   k, d.table.c_str()));
      }

      // Intern the canonicalized effective predicate list as a node.
      std::vector<query::BoundPredicate> preds =
          EffectivePreds(*it.query, ItemOverrides(it), i);
      CanonicalizePreds(&preds);
      size_t node = g->nodes.size();
      for (size_t n = 0; n < g->nodes.size(); ++n) {
        if (g->nodes[n].slot == slot && SamePredList(g->nodes[n].preds, preds)) {
          node = n;
          break;
        }
      }
      if (node == g->nodes.size()) {
        Node nd;
        nd.slot = slot;
        nd.item_idx = k;
        nd.dim_idx = i;
        nd.preds = std::move(preds);
        g->nodes.push_back(std::move(nd));
        wp.stats_.predicate_nodes += 1;
      }
      w.nodes.push_back(static_cast<uint32_t>(node));
    }
    g->wiring.push_back(std::move(w));
  }
  wp.stats_.scans = static_cast<int64_t>(wp.groups_.size());
  return wp;
}

Result<std::vector<QueryResult>> WorkloadPlan::Execute(
    const ExecutorOptions& options, obs::Trace* trace) const {
  std::vector<QueryResult> results(items_.size());

  for (const ScanGroup& g : groups_) {
    const size_t num_nodes = g.nodes.size();
    const size_t num_items = g.wiring.size();

    // ---- the CSE payoff: one bitmap build per deduped node, shared by
    // every item referencing it.
    std::vector<std::vector<uint64_t>> bitmaps(num_nodes);
    {
      obs::ScopedStage bitmap_span(trace, obs::Stage::kBitmapRebuild);
      for (size_t n = 0; n < num_nodes; ++n) {
        const Node& nd = g.nodes[n];
        const WorkloadItem& owner = items_[nd.item_idx];
        DPSTARJ_ASSIGN_OR_RETURN(
            bitmaps[n],
            BuildPassBitmap(owner.plan->dims[nd.dim_idx],
                            *g.slots[nd.slot].dim_table, nd.preds));
      }
    }
    obs::ScopedStage scan_span(trace, obs::Stage::kScan);

    // ---- byte verdict tables: each slot's nodes, eight to a table. The
    // sweep gathers each table once per fact row — so a slot costs one probe
    // per eight deduped predicates on it, however many items reference them
    // — and transposes the gathered bytes into per-node verdict words.
    std::vector<ByteTable> tables;
    tables.reserve(num_nodes);
    std::vector<size_t> filling(g.slots.size(), SIZE_MAX);  // slot → table
    for (size_t n = 0; n < num_nodes; ++n) {
      const size_t s = g.nodes[n].slot;
      if (filling[s] == SIZE_MAX || tables[filling[s]].num_nodes == 8) {
        filling[s] = tables.size();
        const Slot& slot = g.slots[s];
        ByteTable& t = tables.emplace_back();
        t.fact_dim_row =
            items_[slot.item_idx].plan->fact_dim_row[slot.dim_idx]->rows.data();
        t.verdicts.assign(bitmaps[n].size() * 64, 0);
      }
      ByteTable& t = tables[filling[s]];
      const unsigned k = static_cast<unsigned>(t.num_nodes++);
      t.nodes[k] = static_cast<uint32_t>(n);
      const uint64_t* words = bitmaps[n].data();
      for (size_t dr = 0; dr < t.verdicts.size(); ++dr) {
        t.verdicts[dr] |=
            static_cast<uint8_t>(((words[dr >> 6] >> (dr & 63)) & 1) << k);
      }
    }
    // Item node lists flattened for a tight inner loop.
    std::vector<size_t> item_node_begin(num_items + 1, 0);
    std::vector<uint32_t> item_nodes;
    for (size_t j = 0; j < num_items; ++j) {
      const ItemWiring& w = g.wiring[j];
      item_node_begin[j] = item_nodes.size();
      item_nodes.insert(item_nodes.end(), w.nodes.begin(), w.nodes.end());
    }
    item_node_begin[num_items] = item_nodes.size();

    // ---- the single shared sweep, accumulating every item at once.
    const int num_workers = MorselPool::ResolveWorkers(
        options.exec_threads, options.morsel_size, g.fact_rows);
    std::vector<SweepAccumulator> accs;
    accs.reserve(num_items);
    for (const ItemWiring& w : g.wiring) {
      accs.emplace_back(*items_[w.item_idx].plan, /*cells=*/false, num_workers);
    }
    // Block-vectorized sweep with bit-packed verdicts: per block, each
    // deduped node's verdicts are gathered ONCE per row (this is where the
    // CSE pays at scan time, not just at build time) into uint64 words.
    // Combining an item's nodes is then one AND per 64 rows, and each
    // item's chunk goes to its SweepAccumulator — the same chunks, in the
    // same order, as the single-query sweep hands its accumulator.
    constexpr int64_t kBlock = 1024;
    constexpr int kWordsPerBlock = static_cast<int>(kBlock / 64);
    std::vector<std::vector<uint64_t>> verdict_scratch(
        static_cast<size_t>(num_workers),
        std::vector<uint64_t>(num_nodes * static_cast<size_t>(kWordsPerBlock)));

    const auto& kern = kernels::ActiveKernels();
    auto scan = [&](int worker, int64_t begin, int64_t end) {
      uint64_t* verdict = verdict_scratch[static_cast<size_t>(worker)].data();
      for (int64_t b0 = begin; b0 < end; b0 += kBlock) {
        const int len = static_cast<int>(std::min(kBlock, end - b0));
        const int nwords = (len + 63) / 64;
        // Each node's verdict bits for this block. An absent FK lands on
        // the sentinel row, whose bit in every node bitmap is 0. Bits past
        // `len` in the tail word stay 0.
        for (const ByteTable& t : tables) {
          const int32_t* rows_for = t.fact_dim_row + b0;
          const size_t nn = t.num_nodes;
          uint64_t node_bits[8];
          for (int wi = 0; wi < nwords; ++wi) {
            const int i0 = wi * 64;
            kern.byte_gather_transpose(t.verdicts.data(), rows_for + i0,
                                       std::min(64, len - i0), nn, node_bits);
            for (size_t k = 0; k < nn; ++k) {
              verdict[t.nodes[k] * static_cast<size_t>(kWordsPerBlock) + wi] =
                  node_bits[k];
            }
          }
        }
        // Each item ANDs its nodes' verdict words and accumulates the
        // surviving rows.
        for (size_t j = 0; j < num_items; ++j) {
          const size_t nb = item_node_begin[j];
          const size_t ne = item_node_begin[j + 1];
          for (int wi = 0; wi < nwords; ++wi) {
            const int i0 = wi * 64;
            const int nbits = std::min(64, len - i0);
            // Seeding with the tail mask makes a node-less item (join-only
            // queries whose predicates all interned away) pass every row.
            uint64_t pw =
                nbits == 64 ? ~uint64_t{0} : (uint64_t{1} << nbits) - 1;
            for (size_t x = nb; x < ne; ++x) {
              pw &= verdict[item_nodes[x] * static_cast<size_t>(kWordsPerBlock)
                            + wi];
            }
            accs[j].AddChunk(worker, b0 + i0, nbits, pw);
          }
        }
      }
    };
    MorselPool::Shared().Run(num_workers, g.fact_rows, options.morsel_size,
                             scan);

    for (size_t j = 0; j < num_items; ++j) {
      const size_t k = g.wiring[j].item_idx;
      results[k] = accs[j].Finalize(*items_[k].query);
    }
  }

  // Items answered from cells: the single-query sweep itself, so each
  // answer is its Execute answer bit for bit.
  const StarJoinExecutor executor(options);
  for (size_t k : cell_items_) {
    const WorkloadItem& it = items_[k];
    DPSTARJ_ASSIGN_OR_RETURN(
        results[k], executor.Execute(*it.query, ItemOverrides(it), *it.plan,
                                     trace));
  }
  return results;
}

}  // namespace dpstarj::exec
