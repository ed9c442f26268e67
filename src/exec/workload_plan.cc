#include "exec/workload_plan.h"

#include <algorithm>
#include <cstring>
#include <tuple>

#include "common/string_util.h"
#include "exec/group_code.h"
#include "exec/kernels/kernels.h"
#include "exec/parallel.h"

namespace dpstarj::exec {

namespace {

// The effective predicate list of item dimension i (overrides win).
const std::vector<query::BoundPredicate>& EffectiveItemPreds(
    const WorkloadItem& it, size_t i) {
  if (it.overrides != nullptr && !it.overrides->empty() &&
      (*it.overrides)[i].has_value()) {
    return *(*it.overrides)[i];
  }
  return it.query->dims[i].predicates;
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

// Per-(worker, item) scan partial; merged in worker order like ScanPartial.
// Aligned to a cache line so the slots at the seam of two workers' partial
// vectors (allocated back-to-back) never share one — scalar/rows are bumped
// on every surviving verdict word.
struct alignas(64) ItemPartial {
  double scalar = 0.0;
  int64_t rows = 0;
  std::unique_ptr<GroupAccumulator> groups;
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
      std::vector<query::BoundPredicate> preds = EffectiveItemPreds(it, i);
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
      wp.stats_.predicate_refs += 1;
    }
    g->wiring.push_back(std::move(w));
  }
  wp.stats_.scans = static_cast<int64_t>(wp.groups_.size());
  return wp;
}

Result<std::vector<QueryResult>> WorkloadPlan::Execute(
    const ExecutorOptions& options, obs::Trace* trace) const {
  if (options.strict_integrity) {
    return Status::InvalidArgument(
        "strict integrity is not supported by the shared-scan batch path; "
        "execute strict queries through the single-query path");
  }
  std::vector<QueryResult> results(items_.size());

  for (const ScanGroup& g : groups_) {
    const size_t num_slots = g.slots.size();
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

    // ---- hoisted per-slot / per-node / per-item scan state.
    std::vector<const int32_t*> slot_rows(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      const Slot& slot = g.slots[s];
      slot_rows[s] =
          items_[slot.item_idx].plan->fact_dim_row[slot.dim_idx]->rows.data();
    }
    std::vector<const uint64_t*> node_words(num_nodes);
    std::vector<uint32_t> node_slot(num_nodes);
    for (size_t n = 0; n < num_nodes; ++n) {
      node_words[n] = bitmaps[n].data();
      node_slot[n] = static_cast<uint32_t>(g.nodes[n].slot);
    }
    // ---- per-slot verdict tables: one word per dimension row packing the
    // verdict bit of every node on that slot. The sweep then probes each
    // shared slot ONCE per fact row — cost independent of how many deduped
    // predicates reference it — and transposes the packed words in-register.
    // Falls back to per-node bitmap probing past 64 nodes on one slot.
    std::vector<std::vector<uint32_t>> slot_nodes(num_slots);
    for (size_t n = 0; n < num_nodes; ++n) {
      slot_nodes[node_slot[n]].push_back(static_cast<uint32_t>(n));
    }
    bool slot_tables_ok = true;
    for (const auto& sn : slot_nodes) {
      if (sn.size() > 64) slot_tables_ok = false;
    }
    std::vector<std::vector<uint64_t>> slot_tables(num_slots);
    std::vector<std::vector<uint8_t>> slot_tables8(num_slots);
    if (slot_tables_ok) {
      for (size_t s = 0; s < num_slots; ++s) {
        const size_t nn = slot_nodes[s].size();
        if (nn == 0) continue;
        const size_t dim_rows = bitmaps[slot_nodes[s][0]].size() * 64;
        // Up to 8 nodes fit a byte-wide table, which the sweep can gather
        // 8 rows at a time with a multiply trick; wider slots take the
        // word-wide table and a plain bit transpose.
        if (nn <= 8) {
          slot_tables8[s].assign(dim_rows, 0);
        } else {
          slot_tables[s].assign(dim_rows, 0);
        }
        for (size_t k = 0; k < nn; ++k) {
          const uint64_t* words = node_words[slot_nodes[s][k]];
          for (size_t dr = 0; dr < dim_rows; ++dr) {
            const uint64_t bit = (words[dr >> 6] >> (dr & 63)) & uint64_t{1};
            if (nn <= 8) {
              slot_tables8[s][dr] |= static_cast<uint8_t>(bit << k);
            } else {
              slot_tables[s][dr] |= bit << k;
            }
          }
        }
      }
    }
    // Item node lists flattened for a tight inner loop.
    std::vector<size_t> item_node_begin(num_items + 1, 0);
    std::vector<uint32_t> item_nodes;
    std::vector<const uint64_t*> item_codes(num_items, nullptr);
    std::vector<const double*> item_weights(num_items, nullptr);
    std::vector<uint8_t> item_grouped(num_items, 0);
    for (size_t j = 0; j < num_items; ++j) {
      const ItemWiring& w = g.wiring[j];
      const WorkloadItem& it = items_[w.item_idx];
      item_node_begin[j] = item_nodes.size();
      item_nodes.insert(item_nodes.end(), w.nodes.begin(), w.nodes.end());
      item_grouped[j] = it.plan->grouped ? 1 : 0;
      if (it.plan->grouped) item_codes[j] = it.plan->codes.data();
      if (it.plan->weights != nullptr) {
        item_weights[j] = it.plan->weights->values.data();
      }
    }
    item_node_begin[num_items] = item_nodes.size();

    // ---- the single shared sweep, accumulating every item at once.
    const int num_workers = MorselPool::ResolveWorkers(
        options.exec_threads, options.morsel_size, g.fact_rows);
    const uint64_t dense_limit =
        static_cast<uint64_t>(g.fact_rows / std::max(num_workers, 1)) * 4 +
        1024;
    std::vector<std::vector<ItemPartial>> partials(
        static_cast<size_t>(num_workers));
    for (auto& per_item : partials) {
      per_item.resize(num_items);
      for (size_t j = 0; j < num_items; ++j) {
        if (item_grouped[j]) {
          per_item[j].groups = std::make_unique<GroupAccumulator>(
              items_[g.wiring[j].item_idx].plan->code_space, dense_limit);
        }
      }
    }
    // Block-vectorized sweep with bit-packed verdicts: per block, each
    // deduped node probes its bitmap ONCE per row (this is where the CSE
    // pays at scan time, not just at build time) and packs the verdicts
    // into uint64 words. Combining an item's nodes is then one AND per 64
    // rows, counts reduce to popcounts, and non-count accumulation walks
    // only the PASSING rows via count-trailing-zeros — in ascending row
    // order, so merged results stay deterministic and (for exact
    // aggregates) bit-identical to the single-query path.
    constexpr int64_t kBlock = 1024;
    constexpr int kWordsPerBlock = static_cast<int>(kBlock / 64);
    std::vector<std::vector<uint64_t>> verdict_scratch(
        static_cast<size_t>(num_workers),
        std::vector<uint64_t>(num_nodes * static_cast<size_t>(kWordsPerBlock)));

    const auto& kern = kernels::ActiveKernels();
    auto scan = [&](int worker, int64_t begin, int64_t end) {
      std::vector<ItemPartial>& ps = partials[static_cast<size_t>(worker)];
      uint64_t* verdict = verdict_scratch[static_cast<size_t>(worker)].data();
      for (int64_t b0 = begin; b0 < end; b0 += kBlock) {
        const int len = static_cast<int>(std::min(kBlock, end - b0));
        const int nwords = (len + 63) / 64;
        // Each node's verdict bits for this block. An absent FK lands on
        // the sentinel row, whose bit in every node bitmap is 0. Bits past
        // `len` in the tail word stay 0.
        if (slot_tables_ok) {
          // One table probe per (row, slot); the probed word carries every
          // node-on-that-slot verdict, transposed here into per-node words.
          for (size_t s = 0; s < num_slots; ++s) {
            const size_t nn = slot_nodes[s].size();
            if (nn == 0) continue;
            const int32_t* rows_for = slot_rows[s] + b0;
            if (!slot_tables8[s].empty()) {
              // Byte-table path: the dispatched byte_gather_transpose kernel
              // gathers 64 verdict bytes and pulls bit k of every byte into
              // node k's packed word (SWAR multiply on scalar, vpmovmskb
              // transpose on AVX2); the per-node words then scatter into the
              // verdict scratch rows.
              const uint8_t* table = slot_tables8[s].data();
              uint64_t node_bits[8];
              for (int wi = 0; wi < nwords; ++wi) {
                const int i0 = wi * 64;
                const int i1 = std::min(len, i0 + 64);
                kern.byte_gather_transpose(table, rows_for + i0, i1 - i0, nn,
                                           node_bits);
                for (size_t k = 0; k < nn; ++k) {
                  verdict[slot_nodes[s][k] *
                              static_cast<size_t>(kWordsPerBlock) +
                          wi] = node_bits[k];
                }
              }
              continue;
            }
            const uint64_t* table = slot_tables[s].data();
            for (int wi = 0; wi < nwords; ++wi) {
              const int i0 = wi * 64;
              const int i1 = std::min(len, i0 + 64);
              uint64_t vbuf[64];
              for (int i = i0; i < i1; ++i) vbuf[i - i0] = table[rows_for[i]];
              for (int i = i1 - i0; i < 64; ++i) vbuf[i] = 0;
              for (size_t k = 0; k < nn; ++k) {
                uint64_t bits = 0;
                for (int i = 0; i < 64; ++i) {
                  bits |= ((vbuf[i] >> k) & uint64_t{1})
                          << static_cast<unsigned>(i);
                }
                verdict[slot_nodes[s][k] * static_cast<size_t>(kWordsPerBlock)
                        + wi] = bits;
              }
            }
          }
        } else {
          for (size_t n = 0; n < num_nodes; ++n) {
            const int32_t* rows_for = slot_rows[node_slot[n]] + b0;
            const uint64_t* words = node_words[n];
            uint64_t* out = verdict + n * static_cast<size_t>(kWordsPerBlock);
            for (int wi = 0; wi < nwords; ++wi) {
              const int i0 = wi * 64;
              const int i1 = std::min(len, i0 + 64);
              uint64_t bits = 0;
              for (int i = i0; i < i1; ++i) {
                const int32_t dr = rows_for[i];
                bits |= ((words[dr >> 6] >> (dr & 63)) & uint64_t{1})
                        << static_cast<unsigned>(i - i0);
              }
              out[wi] = bits;
            }
          }
        }
        // Each item ANDs its nodes' verdict words and accumulates the
        // surviving rows.
        for (size_t j = 0; j < num_items; ++j) {
          const size_t nb = item_node_begin[j];
          const size_t ne = item_node_begin[j + 1];
          ItemPartial& p = ps[j];
          const double* weights = item_weights[j];
          const bool grouped = item_grouped[j];
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
            if (pw == 0) continue;
            if (!grouped && weights == nullptr) {
              // Exact count: integer-valued sums commute bit-exactly, so a
              // word subtotal is safe.
              const int cnt = __builtin_popcountll(pw);
              p.scalar += static_cast<double>(cnt);
              p.rows += cnt;
              continue;
            }
            const int64_t base = b0 + i0;
            do {
              const int bit = __builtin_ctzll(pw);
              pw &= pw - 1;
              const int64_t row = base + bit;
              const double w = weights != nullptr ? weights[row] : 1.0;
              if (grouped) {
                p.groups->Add(item_codes[j][row], w);
              } else {
                p.scalar += w;
                p.rows += 1;
              }
            } while (pw != 0);
          }
        }
      }
    };
    MorselPool::Shared().Run(num_workers, g.fact_rows, options.morsel_size,
                             scan);

    // ---- deterministic per-item merges, in worker order.
    for (size_t j = 0; j < num_items; ++j) {
      const WorkloadItem& it = items_[g.wiring[j].item_idx];
      const bool is_avg =
          it.query->query.aggregate == query::AggregateKind::kAvg;
      QueryResult& out = results[g.wiring[j].item_idx];
      if (!item_grouped[j]) {
        double scalar = 0.0;
        int64_t rows = 0;
        for (const auto& per_item : partials) {
          scalar += per_item[j].scalar;
          rows += per_item[j].rows;
        }
        out.scalar = is_avg
                         ? (rows > 0 ? scalar / static_cast<double>(rows) : 0.0)
                         : scalar;
        continue;
      }
      GroupAccumulator& merged = *partials[0][j].groups;
      for (size_t p = 1; p < partials.size(); ++p) {
        merged.MergeFrom(*partials[p][j].groups);
      }
      out = RenderPlanGroups(*it.query, *it.plan, merged, is_avg);
    }
  }
  return results;
}

}  // namespace dpstarj::exec
