// Shared toy star-schema fixture for binder/executor/mechanism tests.
//
// Schema:
//   Cust(ck pk, region ∈ {N,S,E}, tier ∈ [1,4])  — 6 rows
//   Prod(pk pk, cat ∈ {a,b,c,d})                 — 4 rows
//   Orders(ck, pk, qty, price)                   — 12 rows (the fact)
//
// The instance is small enough to verify every aggregate by hand; helpers
// expose the canonical counting query used across tests, and a sweep of a
// plan that its table has outgrown.

#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "exec/kernels/kernels.h"
#include "exec/star_join_executor.h"
#include "query/star_query.h"
#include "storage/catalog.h"

namespace dpstarj::testing_fixture {

inline storage::AttributeDomain RegionDomain() {
  return storage::AttributeDomain::Categorical({"N", "S", "E"});
}

inline storage::AttributeDomain TierDomain() {
  return storage::AttributeDomain::IntRange(1, 4);
}

inline storage::AttributeDomain CatDomain() {
  return storage::AttributeDomain::Categorical({"a", "b", "c", "d"});
}

/// Builds the toy catalog. Aborts on internal errors (test-only code).
inline storage::Catalog MakeToyCatalog() {
  using storage::Field;
  using storage::Value;
  using storage::ValueType;

  storage::Catalog catalog;

  storage::Schema cust_schema({Field("ck", ValueType::kInt64),
                               Field("region", ValueType::kString, RegionDomain()),
                               Field("tier", ValueType::kInt64, TierDomain())});
  auto cust = *storage::Table::Create("Cust", cust_schema, "ck");
  // ck: 1..6; regions N,N,S,S,E,E; tiers 1,2,3,4,1,2.
  const char* regions[6] = {"N", "N", "S", "S", "E", "E"};
  const int64_t tiers[6] = {1, 2, 3, 4, 1, 2};
  for (int64_t i = 0; i < 6; ++i) {
    DPSTARJ_CHECK(
        cust->AppendRow({Value(i + 1), Value(regions[i]), Value(tiers[i])}).ok(),
        "fixture append");
  }

  storage::Schema prod_schema({Field("pk", ValueType::kInt64),
                               Field("cat", ValueType::kString, CatDomain())});
  auto prod = *storage::Table::Create("Prod", prod_schema, "pk");
  const char* cats[4] = {"a", "b", "c", "d"};
  for (int64_t i = 0; i < 4; ++i) {
    DPSTARJ_CHECK(prod->AppendRow({Value(i + 1), Value(cats[i])}).ok(),
                  "fixture append");
  }

  storage::Schema fact_schema({Field("ck", ValueType::kInt64),
                               Field("pk", ValueType::kInt64),
                               Field("qty", ValueType::kInt64),
                               Field("price", ValueType::kDouble)});
  auto fact = *storage::Table::Create("Orders", fact_schema);
  // 12 rows; (ck, pk, qty, price).
  const int64_t rows[12][3] = {
      {1, 1, 2}, {1, 2, 1}, {2, 1, 3}, {2, 3, 1}, {3, 2, 2}, {3, 4, 5},
      {4, 1, 1}, {4, 4, 2}, {5, 2, 4}, {5, 3, 3}, {6, 1, 2}, {6, 2, 1},
  };
  for (const auto& r : rows) {
    DPSTARJ_CHECK(fact->AppendRow({Value(r[0]), Value(r[1]), Value(r[2]),
                                   Value(static_cast<double>(r[2]) * 10.0)})
                      .ok(),
                  "fixture append");
  }

  DPSTARJ_CHECK(catalog.AddTable(cust).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddTable(prod).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddTable(fact).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddForeignKey({"Orders", "ck", "Cust", "ck"}).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddForeignKey({"Orders", "pk", "Prod", "pk"}).ok(), "fixture");
  return catalog;
}

/// COUNT(*) of orders by customers in region N joined with category-a
/// products. True answer on the fixture: rows with ck∈{1,2} and pk=1 →
/// (1,1),(2,1) → 2.
inline query::StarJoinQuery ToyCountQuery() {
  query::StarJoinQuery q;
  q.name = "toy_count";
  q.fact_table = "Orders";
  q.joined_tables = {"Cust", "Prod"};
  q.aggregate = query::AggregateKind::kCount;
  q.predicates.push_back(
      query::Predicate::Point("Cust", "region", storage::Value("N")));
  q.predicates.push_back(query::Predicate::Point("Prod", "cat", storage::Value("a")));
  return q;
}

/// The answer a sweep of `plan`'s fact rows gives under `q`'s own
/// predicates, in 64-row chunks on one worker. It is the executor's row
/// sweep without its refusal of a stale plan, so tests can run a plan after
/// an append has grown its table: `q` must be bound like the plan, and only
/// the plan's rows [0, fact_rows()) are read.
inline exec::QueryResult SweepPlanRows(const exec::ScanPlan& plan,
                                       const query::BoundQuery& q) {
  std::vector<std::vector<uint64_t>> bitmaps;
  std::vector<const int32_t*> rows;
  std::vector<const uint64_t*> words;
  for (size_t i = 0; i < q.dims.size(); ++i) {
    bitmaps.push_back(*exec::BuildPassBitmap(plan.dims[i], *q.dims[i].dim,
                                             q.dims[i].predicates));
  }
  for (size_t i = 0; i < q.dims.size(); ++i) {
    rows.push_back(plan.fact_dim_row[i]->rows.data());
    words.push_back(bitmaps[i].data());
  }
  const auto& kern = exec::kernels::ActiveKernels();
  exec::SweepAccumulator acc(plan, q, /*cells=*/false, /*num_workers=*/1);
  for (int64_t unit = 0; unit < plan.fact_rows(); unit += 64) {
    const int nbits =
        static_cast<int>(std::min<int64_t>(64, plan.fact_rows() - unit));
    acc.AddChunk(0, unit, nbits,
                 kern.pass_mask(rows.data(), words.data(), rows.size(), unit,
                                nbits));
  }
  return acc.Finalize();
}

}  // namespace dpstarj::testing_fixture
