// Streaming-ingest equivalence tier: incremental plan extension and the
// service's epoch semantics must be indistinguishable from tearing
// everything down and rebuilding.
//
//   * ScanPlan::ExtendFrom vs a fresh Compile — plus ScanPlan::WithCells
//     when the extended plan has cells — over randomized append schedules ×
//     query shapes: every scaffold array (FK resolution, weights, and the
//     classes, packed cell codes and rendered labels of the cell layout)
//     bit-identical, and execution of both plans bit-identical to the
//     naive oracle. Each extension appends into its parent's arrays
//     while their capacity lasts, and the parent's own sweep answers as it
//     did before. Tails whose labels sort before, between and after the
//     plan's merge them into its label table. Tails that cannot be added (a
//     key outgrowing its packed field, a plan with numbered group codes) are
//     declined, and the cache recompiles.
//   * QueryService::Ingest: one epoch bump per accepted batch, all-or-nothing
//     batches, answer-cache keys that fold the epoch in (a post-append query
//     is a FRESH DP release and a fresh ε spend), exact ledger accounting.
//   * A concurrent ingest/query/workload hammer over a live HTTP server
//     (run under TSan via the CI TSan configuration): every answer's epoch
//     is a table version that actually existed while the request was in
//     flight, and per-tenant ε accounting stays exact to the last spend.
//
// Registered a second time under DPSTARJ_FORCE_SCALAR=1 (like
// executor_equivalence_test), so the equivalence claims also hold on the
// scalar kernel path.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "exec/naive_executor.h"
#include "exec/plan_cache.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "net/client.h"
#include "net/http_server.h"
#include "net/service_api.h"
#include "query/binder.h"
#include "service/query_service.h"
#include "storage/catalog.h"
#include "test_catalog.h"

namespace dpstarj {
namespace {

using exec::PredicateOverrides;
using exec::QueryResult;
using exec::ScanPlan;
using exec::StarJoinExecutor;
using storage::Value;
using testing_fixture::MakeToyCatalog;
using testing_fixture::SweepPlanRows;
using testing_fixture::ToyCountQuery;

// ---------------------------------------------------------------------------
// Fixture helpers

query::StarJoinQuery ToyGroupedQuery() {
  query::StarJoinQuery q = ToyCountQuery();
  q.name = "toy_grouped";
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  q.group_by = {{"Cust", "region"}, {"Prod", "cat"}};
  return q;
}

query::StarJoinQuery ToyFactGroupedQuery() {
  query::StarJoinQuery q = ToyCountQuery();
  q.name = "toy_fact_grouped";
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"price", 1.0}};
  q.group_by = {{"Orders", "qty"}};  // fact-side packed field: base 1, 3 bits
  return q;
}

query::StarJoinQuery ToyMultiMeasureQuery() {
  query::StarJoinQuery q = ToyCountQuery();
  q.name = "toy_multi_measure";
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 2.0}, {"price", 0.5}};
  q.group_by = {{"Cust", "tier"}};
  return q;
}

// One random fact row. ck may miss Cust (0 and 7+ are unknown keys) so the
// absent-FK sentinel path is part of every schedule; qty stays within the
// packed field compiled from the fixture's 1..5 range (base 1, mask 7).
std::vector<Value> RandomOrdersRow(Rng* rng) {
  return {Value(rng->UniformInt(0, 8)), Value(rng->UniformInt(1, 5)),
          Value(rng->UniformInt(1, 8)),
          Value(static_cast<double>(rng->UniformInt(0, 400)) * 0.25)};
}

void ExpectBitIdentical(const QueryResult& expected, const QueryResult& got) {
  EXPECT_EQ(expected.grouped, got.grouped);
  EXPECT_EQ(expected.scalar, got.scalar);
  ASSERT_EQ(expected.groups.size(), got.groups.size());
  auto it = got.groups.begin();
  for (const auto& [label, value] : expected.groups) {
    EXPECT_EQ(label, it->first);
    EXPECT_EQ(value, it->second) << "group " << label;
    ++it;
  }
}

// A cell-layout limit far above every toy plan's dense cell index, so the
// tests build cells on tables too small for PlanCache's size rule.
constexpr uint64_t kAnyCells = uint64_t{1} << 20;

// Every public scaffold array of the two plans, field by field — the shared
// join, weight and ordinal columns, ordinal tables and group ordinals and
// the cell layouts by content, since the plans hold them by pointer.
// `where` identifies the (shape, seed, batch) combination on failure.
void ExpectSamePlan(const ScanPlan& fresh, const ScanPlan& ext,
                    const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(fresh.numbered_codes, ext.numbered_codes);
  EXPECT_EQ(fresh.fact_rows(), ext.fact_rows());
  EXPECT_EQ(fresh.grouped, ext.grouped);
  EXPECT_EQ(fresh.code_space, ext.code_space);
  ASSERT_EQ(fresh.fact_dim_row.size(), ext.fact_dim_row.size());
  for (size_t i = 0; i < fresh.fact_dim_row.size(); ++i) {
    const exec::JoinColumn& f = *fresh.fact_dim_row[i];
    const exec::JoinColumn& e = *ext.fact_dim_row[i];
    EXPECT_EQ(f.fact_rows, e.fact_rows);
    EXPECT_EQ(f.dim_rows, e.dim_rows);
    EXPECT_EQ(f.has_absent_fk, e.has_absent_fk);
    EXPECT_EQ(f.rows, e.rows);
  }
  ASSERT_EQ(fresh.ordinal_columns.size(), ext.ordinal_columns.size());
  for (size_t i = 0; i < fresh.ordinal_columns.size(); ++i) {
    ASSERT_EQ(fresh.ordinal_columns[i].size(), ext.ordinal_columns[i].size());
    for (size_t t = 0; t < fresh.ordinal_columns[i].size(); ++t) {
      const exec::OrdinalColumn* f = fresh.ordinal_columns[i][t].get();
      const exec::OrdinalColumn* e = ext.ordinal_columns[i][t].get();
      ASSERT_EQ(f == nullptr, e == nullptr);
      if (f == nullptr) continue;
      EXPECT_EQ(f->fact_rows, e->fact_rows);
      EXPECT_EQ(f->width, e->width);
      EXPECT_EQ(f->narrow, e->narrow);
      EXPECT_EQ(f->wide, e->wide);
      EXPECT_EQ(e->join, ext.fact_dim_row[i]);
      EXPECT_EQ(e->table, ext.dims[i].ordinal_tables[t]);
    }
  }
  EXPECT_EQ(fresh.codes, ext.codes);
  ASSERT_EQ(fresh.weights == nullptr, ext.weights == nullptr);
  if (fresh.weights != nullptr) {
    EXPECT_EQ(fresh.weights->fact_rows, ext.weights->fact_rows);
    EXPECT_EQ(fresh.weights->values, ext.weights->values);
  }
  ASSERT_EQ(fresh.cells == nullptr, ext.cells == nullptr);
  if (fresh.cells != nullptr) {
    const exec::CellLayout& f = *fresh.cells;
    const exec::CellLayout& e = *ext.cells;
    EXPECT_EQ(f.class_of_row, e.class_of_row);
    ASSERT_EQ(f.classes.size(), e.classes.size());
    for (size_t i = 0; i < f.classes.size(); ++i) {
      EXPECT_EQ(f.classes[i].num_rows, e.classes[i].num_rows);
      ASSERT_EQ(f.classes[i].ordinal_tables.size(),
                e.classes[i].ordinal_tables.size());
      for (size_t t = 0; t < f.classes[i].ordinal_tables.size(); ++t) {
        EXPECT_EQ(f.classes[i].ordinal_tables[t]->ordinals,
                  e.classes[i].ordinal_tables[t]->ordinals);
      }
    }
    EXPECT_EQ(f.dim_strides, e.dim_strides);
    EXPECT_EQ(f.part_strides, e.part_strides);
    EXPECT_EQ(f.cell_of_index, e.cell_of_index);
    EXPECT_EQ(f.cell_class, e.cell_class);
    EXPECT_EQ(f.counts, e.counts);
    EXPECT_EQ(f.weights, e.weights);
    EXPECT_EQ(f.codes, e.codes);
    EXPECT_EQ(f.labels, e.labels);
    EXPECT_EQ(f.slots, e.slots);
    EXPECT_EQ(f.code_slots, e.code_slots);
  }
  ASSERT_EQ(fresh.dims.size(), ext.dims.size());
  for (size_t i = 0; i < fresh.dims.size(); ++i) {
    const exec::PlanDim& f = fresh.dims[i];
    const exec::PlanDim& e = ext.dims[i];
    EXPECT_EQ(f.num_rows, e.num_rows);
    ASSERT_EQ(f.groups == nullptr, e.groups == nullptr);
    if (f.groups != nullptr) {
      EXPECT_EQ(f.groups->ordinal, e.groups->ordinal);
      EXPECT_EQ(f.groups->rep_rows, e.groups->rep_rows);
    }
    EXPECT_EQ(f.field, e.field);
    ASSERT_EQ(f.ordinal_tables.size(), e.ordinal_tables.size());
    for (size_t t = 0; t < f.ordinal_tables.size(); ++t) {
      EXPECT_EQ(f.ordinal_tables[t]->ordinals, e.ordinal_tables[t]->ordinals);
    }
  }
}

// ---------------------------------------------------------------------------
// ScanPlan::ExtendFrom ≡ fresh Compile

// An extension appends into each of its parent's fact-row arrays — and so
// starts at the same address — exactly when the array's buffer holds the
// grown table. A compiled array has no slack, so its first extension copies.
template <typename T>
void ExpectAppendedWhileCapacityLasts(const exec::AppendArray<T>& parent,
                                      const exec::AppendArray<T>& child,
                                      const char* what) {
  EXPECT_EQ(child.data() == parent.data(), child.size() <= parent.capacity())
      << what << ": " << parent.size() << " -> " << child.size()
      << " rows, capacity " << parent.capacity();
}

// Each schedule runs twice: on the fact-row layout alone, and from a plan
// with cells, whose every extension must keep cells equal to a fresh build.
TEST(IngestEquivalenceTest, ExtendMatchesFreshCompileOnRandomSchedules) {
  const std::vector<query::StarJoinQuery> shapes = {
      ToyCountQuery(), ToyGroupedQuery(), ToyFactGroupedQuery(),
      ToyMultiMeasureQuery()};
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      for (const bool with_cells : {false, true}) {
        // Fresh instance per schedule: appends mutate the catalog.
        storage::Catalog catalog = MakeToyCatalog();
        query::Binder binder(&catalog);
        StarJoinExecutor executor;
        auto orders = catalog.GetTable("Orders");
        ASSERT_TRUE(orders.ok());

        auto bound = binder.Bind(shapes[shape]);
        ASSERT_TRUE(bound.ok()) << bound.status().ToString();
        exec::PlanColumnStore columns;
        auto prev = ScanPlan::Compile(*bound, columns);
        ASSERT_TRUE(prev.ok()) << prev.status().ToString();
        if (with_cells) {
          prev = ScanPlan::WithCells(*prev, *bound, kAnyCells);
          ASSERT_TRUE(prev.ok()) << prev.status().ToString();
        }

        Rng rng(seed * 977 + shape);
        query::BoundQuery prev_bound = *bound;
        for (int batch = 0; batch < 3; ++batch) {
          const QueryResult prev_answer = SweepPlanRows(*prev, prev_bound);
          const int64_t batch_rows = rng.UniformInt(1, 8);
          for (int64_t r = 0; r < batch_rows; ++r) {
            ASSERT_TRUE((*orders)->AppendRow(RandomOrdersRow(&rng)).ok());
          }
          auto grown = binder.Bind(shapes[shape]);
          ASSERT_TRUE(grown.ok());
          ASSERT_TRUE(ScanPlan::IsAppendExtension(*prev, *grown));

          auto ext = ScanPlan::ExtendFrom(*prev, *grown, columns);
          ASSERT_TRUE(ext.ok()) << ext.status().ToString();
          ASSERT_EQ(ext->cells != nullptr, with_cells);
          for (size_t i = 0; i < ext->fact_dim_row.size(); ++i) {
            ExpectAppendedWhileCapacityLasts(prev->fact_dim_row[i]->rows,
                                             ext->fact_dim_row[i]->rows,
                                             "join rows");
          }
          if (ext->weights != nullptr) {
            ExpectAppendedWhileCapacityLasts(prev->weights->values,
                                             ext->weights->values, "weights");
          }
          // A plan without cells extends its ordinal columns the same way;
          // one with cells holds none.
          ASSERT_EQ(ext->ordinal_columns.empty(), with_cells);
          ASSERT_EQ(ext->ordinal_columns.size(), prev->ordinal_columns.size());
          for (size_t i = 0; i < ext->ordinal_columns.size(); ++i) {
            for (size_t t = 0; t < ext->ordinal_columns[i].size(); ++t) {
              const exec::OrdinalColumn& parent = *prev->ordinal_columns[i][t];
              const exec::OrdinalColumn& child = *ext->ordinal_columns[i][t];
              ASSERT_EQ(child.width, 1);  // the toy domains are narrow
              ExpectAppendedWhileCapacityLasts(parent.narrow, child.narrow,
                                               "ordinal column");
            }
          }
          // The child wrote only past the parent's rows.
          ExpectBitIdentical(prev_answer, SweepPlanRows(*prev, prev_bound));
          // A store of its own, so the fresh compile builds every column
          // instead of reusing the extension's.
          exec::PlanColumnStore fresh_columns;
          auto fresh = ScanPlan::Compile(*grown, fresh_columns);
          ASSERT_TRUE(fresh.ok());
          if (with_cells) {
            fresh = ScanPlan::WithCells(*fresh, *grown, kAnyCells);
            ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
          }
          ExpectSamePlan(
              *fresh, *ext,
              Format("shape=%zu seed=%llu cells=%d batch=%d rows=%lld", shape,
                     static_cast<unsigned long long>(seed), with_cells, batch,
                     static_cast<long long>(grown->fact->num_rows())));

          // Execution through both scaffolds agrees with the naive oracle.
          auto baseline = exec::ExecuteNaive(*grown);
          ASSERT_TRUE(baseline.ok());
          auto via_ext = executor.Execute(
              *grown, PredicateOverrides(grown->dims.size()), *ext);
          auto via_fresh = executor.Execute(
              *grown, PredicateOverrides(grown->dims.size()), *fresh);
          ASSERT_TRUE(via_ext.ok() && via_fresh.ok());
          ExpectBitIdentical(*baseline, *via_ext);
          ExpectBitIdentical(*via_fresh, *via_ext);

          prev = std::move(ext);  // next batch extends the extension
          prev_bound = *grown;
        }
      }
    }
  }
}

// Shop(sk, name) with names c, e, g, a, d, and a Sales fact whose first rows
// reach only shops c and e, so that tails can bring group labels sorting
// after (g), before (a) and between (d) the ones a plan has.
storage::Catalog MakeShopCatalog() {
  using storage::Field;
  using storage::ValueType;
  storage::Catalog catalog;
  storage::Schema shop_schema(
      {Field("sk", ValueType::kInt64), Field("name", ValueType::kString)});
  auto shop = *storage::Table::Create("Shop", shop_schema, "sk");
  const char* names[5] = {"c", "e", "g", "a", "d"};
  for (int64_t i = 0; i < 5; ++i) {
    DPSTARJ_CHECK(shop->AppendRow({Value(i + 1), Value(names[i])}).ok(),
                  "fixture append");
  }
  storage::Schema sales_schema(
      {Field("sk", ValueType::kInt64), Field("units", ValueType::kInt64)});
  auto sales = *storage::Table::Create("Sales", sales_schema);
  for (const int64_t sk : {1, 2, 1, 2}) {
    DPSTARJ_CHECK(sales->AppendRow({Value(sk), Value(sk * 3)}).ok(),
                  "fixture append");
  }
  DPSTARJ_CHECK(catalog.AddTable(shop).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddTable(sales).ok(), "fixture");
  DPSTARJ_CHECK(catalog.AddForeignKey({"Sales", "sk", "Shop", "sk"}).ok(),
                "fixture");
  return catalog;
}

// Each tail brings one new shop name: the extension renders only its label,
// merges it into the sorted table and, when it lands before old labels,
// moves the old cells' slots — and still equals Compile + WithCells.
TEST(IngestEquivalenceTest, TailLabelsMergeBeforeBetweenAndAfterOldOnes) {
  storage::Catalog catalog = MakeShopCatalog();
  query::Binder binder(&catalog);
  StarJoinExecutor executor;
  query::StarJoinQuery q;
  q.name = "units_by_shop";
  q.fact_table = "Sales";
  q.joined_tables = {"Shop"};
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"units", 1.0}};
  q.group_by = {{"Shop", "name"}};
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  exec::PlanColumnStore columns;
  auto prev = ScanPlan::Compile(*bound, columns);
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  prev = ScanPlan::WithCells(*prev, *bound, kAnyCells);
  ASSERT_TRUE(prev.ok()) << prev.status().ToString();
  ASSERT_EQ(prev->cells->labels, (std::vector<std::string>{"c", "e"}));

  auto sales = catalog.GetTable("Sales");
  ASSERT_TRUE(sales.ok());
  const std::vector<std::pair<int64_t, std::vector<std::string>>> tails = {
      {3, {"c", "e", "g"}},             // after every old label
      {4, {"a", "c", "e", "g"}},        // before every old label
      {5, {"a", "c", "d", "e", "g"}}};  // between two old labels
  for (const auto& [sk, labels] : tails) {
    // A tail of the new shop's row and an old shop's, so the merge meets a
    // code it already has too.
    ASSERT_TRUE((*sales)->AppendRow({Value(sk), Value(sk * 3)}).ok());
    ASSERT_TRUE(
        (*sales)->AppendRow({Value(int64_t{1}), Value(int64_t{7})}).ok());
    auto grown = binder.Bind(q);
    ASSERT_TRUE(grown.ok());
    auto ext = ScanPlan::ExtendFrom(*prev, *grown, columns);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    EXPECT_EQ(ext->cells->labels, labels);

    exec::PlanColumnStore fresh_columns;
    auto fresh = ScanPlan::Compile(*grown, fresh_columns);
    ASSERT_TRUE(fresh.ok());
    fresh = ScanPlan::WithCells(*fresh, *grown, kAnyCells);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ExpectSamePlan(*fresh, *ext,
                   Format("shop=%lld", static_cast<long long>(sk)));

    auto naive = exec::ExecuteNaive(*grown);
    auto via_ext = executor.Execute(
        *grown, PredicateOverrides(grown->dims.size()), *ext);
    ASSERT_TRUE(naive.ok() && via_ext.ok());
    ExpectBitIdentical(*naive, *via_ext);
    prev = std::move(ext);
  }
}

TEST(IngestEquivalenceTest, ExtendDeclinedWhenFactGroupFieldOverflows) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  exec::PlanColumnStore columns;
  auto bound = binder.Bind(ToyFactGroupedQuery());
  ASSERT_TRUE(bound.ok());
  auto plan = ScanPlan::Compile(*bound, columns);
  ASSERT_TRUE(plan.ok());

  // qty was compiled from values 1..5: base 1, a 3-bit field, mask 7. An
  // appended qty of 9 has ordinal 8 > mask — packing it would corrupt the
  // neighbouring field, so the extension must refuse (caller recompiles).
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE((*orders)
                  ->AppendRow({Value(int64_t{1}), Value(int64_t{1}),
                               Value(int64_t{9}), Value(90.0)})
                  .ok());
  auto grown = binder.Bind(ToyFactGroupedQuery());
  ASSERT_TRUE(grown.ok());
  ASSERT_TRUE(ScanPlan::IsAppendExtension(*plan, *grown));
  auto ext = ScanPlan::ExtendFrom(*plan, *grown, columns);
  ASSERT_FALSE(ext.ok());
  EXPECT_EQ(ext.status().code(), StatusCode::kNotSupported);

  // A value below the compiled base must be refused the same way.
  storage::Catalog catalog2 = MakeToyCatalog();
  query::Binder binder2(&catalog2);
  auto bound2 = binder2.Bind(ToyFactGroupedQuery());
  ASSERT_TRUE(bound2.ok());
  auto plan2 = ScanPlan::Compile(*bound2, columns);
  ASSERT_TRUE(plan2.ok());
  auto orders2 = catalog2.GetTable("Orders");
  ASSERT_TRUE(orders2.ok());
  ASSERT_TRUE((*orders2)
                  ->AppendRow({Value(int64_t{1}), Value(int64_t{1}),
                               Value(int64_t{0}), Value(0.0)})
                  .ok());
  auto grown2 = binder2.Bind(ToyFactGroupedQuery());
  ASSERT_TRUE(grown2.ok());
  auto ext2 = ScanPlan::ExtendFrom(*plan2, *grown2, columns);
  ASSERT_FALSE(ext2.ok());
  EXPECT_EQ(ext2.status().code(), StatusCode::kNotSupported);

  // A negative compiled base and a huge tail value: the tail ordinal
  // 6e18 - (-4e18) exceeds int64, so the range check must not compute it in
  // signed arithmetic (UBSan reports the overflow otherwise).
  storage::Catalog catalog3 = MakeToyCatalog();
  query::Binder binder3(&catalog3);
  auto orders3 = catalog3.GetTable("Orders");
  ASSERT_TRUE(orders3.ok());
  ASSERT_TRUE((*orders3)
                  ->AppendRow({Value(int64_t{1}), Value(int64_t{1}),
                               Value(int64_t{-4000000000000000000}), Value(0.0)})
                  .ok());
  auto bound3 = binder3.Bind(ToyFactGroupedQuery());
  ASSERT_TRUE(bound3.ok());
  auto plan3 = ScanPlan::Compile(*bound3, columns);
  ASSERT_TRUE(plan3.ok());
  ASSERT_FALSE(plan3->numbered_codes);  // range 4e18 + 5 < 2^62: packed
  ASSERT_TRUE((*orders3)
                  ->AppendRow({Value(int64_t{1}), Value(int64_t{1}),
                               Value(int64_t{6000000000000000000}), Value(0.0)})
                  .ok());
  auto grown3 = binder3.Bind(ToyFactGroupedQuery());
  ASSERT_TRUE(grown3.ok());
  auto ext3 = ScanPlan::ExtendFrom(*plan3, *grown3, columns);
  ASSERT_FALSE(ext3.ok());
  EXPECT_EQ(ext3.status().code(), StatusCode::kNotSupported);
}

TEST(IngestEquivalenceTest, NumberedCodePlansRecompileOnAppend) {
  // Grouping by the double fact column price numbers the key tuples, which
  // ExtendFrom declines: the cache recompiles and still answers like the
  // oracle on the grown table.
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  query::StarJoinQuery q = ToyCountQuery();
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  q.group_by = {{"Cust", "region"}, {"Orders", "price"}};
  q.predicates.clear();
  q.predicates.push_back(query::Predicate::Range(
      "Cust", "tier", Value(int64_t{1}), Value(int64_t{3})));
  exec::PlanCache cache(4);
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE((*plan)->numbered_codes);

  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE((*orders)
                  ->AppendRow({Value(int64_t{2}), Value(int64_t{3}),
                               Value(int64_t{7}), Value(12.5)})
                  .ok());
  auto grown = binder.Bind(q);
  ASSERT_TRUE(grown.ok());
  exec::PlanColumnStore columns;
  auto ext = ScanPlan::ExtendFrom(**plan, *grown, columns);
  ASSERT_FALSE(ext.ok());
  EXPECT_EQ(ext.status().code(), StatusCode::kNotSupported);

  auto recompiled = cache.GetOrCompile(*grown);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_NE(recompiled->get(), plan->get());
  EXPECT_EQ(cache.GetStats().invalidated_append, 1u);
  EXPECT_EQ(cache.GetStats().extends, 0u);
  auto naive = exec::ExecuteNaive(*grown);
  ASSERT_TRUE(naive.ok());
  StarJoinExecutor executor;
  auto got = executor.Execute(*grown, PredicateOverrides(grown->dims.size()),
                              **recompiled);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*naive, *got);
  EXPECT_EQ(got->groups.count("N|12.5"), 1u);
}

TEST(IngestEquivalenceTest, ExtendRefusedWhenADimensionGrew) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  exec::PlanColumnStore columns;
  auto bound = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto plan = ScanPlan::Compile(*bound, columns);
  ASSERT_TRUE(plan.ok());

  auto cust = catalog.GetTable("Cust");
  ASSERT_TRUE(cust.ok());
  ASSERT_TRUE(
      (*cust)
          ->AppendRow({Value(int64_t{7}), Value("N"), Value(int64_t{1})})
          .ok());
  auto grown = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(grown.ok());
  EXPECT_FALSE(ScanPlan::IsAppendExtension(*plan, *grown));
  auto ext = ScanPlan::ExtendFrom(*plan, *grown, columns);
  ASSERT_FALSE(ext.ok());
  EXPECT_EQ(ext.status().code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------------------
// Service epochs + ledger accounting

TEST(IngestServiceTest, EpochBumpsAndPostAppendAnswersAreFreshReleases) {
  storage::Catalog catalog = MakeToyCatalog();
  service::ServiceOptions opts;
  opts.num_engines = 2;
  service::QueryService svc(&catalog, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 10.0).ok());

  const char* sql =
      "SELECT count(*) FROM Orders, Cust, Prod "
      "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
      "AND Cust.region = 'N' AND Prod.cat = 'a'";
  auto a1 = svc.Answer(sql, 0.5, "t");
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(a1->epoch, 0u);

  // Same key at the same epoch: a cache replay — identical noisy value,
  // nothing spent (post-processing closure of DP).
  auto a2 = svc.Answer(sql, 0.5, "t");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a2->scalar, a1->scalar);
  auto acct = svc.ledger().Account("t");
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct->spent, 0.5);

  // Accepted batch: one epoch bump, rows visible, counters advance.
  auto out = svc.Ingest(
      "Orders", {{Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{2}),
                  Value(20.0)},
                 {Value(int64_t{2}), Value(int64_t{1}), Value(int64_t{1}),
                  Value(10.0)}});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->appended, 2);
  EXPECT_EQ(out->rows_total, 14);
  EXPECT_EQ(out->version, 1u);

  // Same query, new epoch: the canonical key differs, so this is a fresh
  // release — computed at epoch 1 and paid for again.
  auto a3 = svc.Answer(sql, 0.5, "t");
  ASSERT_TRUE(a3.ok());
  EXPECT_EQ(a3->epoch, 1u);
  acct = svc.ledger().Account("t");
  ASSERT_TRUE(acct.ok());
  EXPECT_EQ(acct->spent, 1.0);

  // And the new epoch's answer replays like any other.
  auto a4 = svc.Answer(sql, 0.5, "t");
  ASSERT_TRUE(a4.ok());
  EXPECT_EQ(a4->scalar, a3->scalar);
  EXPECT_EQ(a4->epoch, 1u);
  EXPECT_EQ(svc.ledger().Account("t")->spent, 1.0);

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.ingest_batches, 1u);
  EXPECT_EQ(stats.ingest_rows, 2u);
  // The post-append execution reused the compiled scaffold by extension.
  EXPECT_EQ(stats.plan_cache.extends, 1u);
  EXPECT_EQ(stats.plan_cache.invalidations, 0u);
}

TEST(IngestServiceTest, BatchesAreAllOrNothing) {
  storage::Catalog catalog = MakeToyCatalog();
  service::QueryService svc(&catalog, {});
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  const int64_t before = (*orders)->num_rows();

  // Unknown table.
  auto missing = svc.Ingest("Nope", {{Value(int64_t{1})}});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Empty batch.
  auto empty = svc.Ingest("Orders", {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // A good row ahead of a bad one: nothing lands, the epoch does not move.
  auto mixed = svc.Ingest(
      "Orders", {{Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{2}),
                  Value(20.0)},
                 {Value(int64_t{1}), Value(int64_t{1})}});
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*orders)->num_rows(), before);
  EXPECT_EQ((*orders)->version(), 0u);
  EXPECT_EQ(svc.Stats().ingest_batches, 0u);
}

TEST(IngestServiceTest, NonFiniteCellsAreRefused) {
  storage::Catalog catalog = MakeToyCatalog();
  service::QueryService svc(&catalog, {});
  ASSERT_TRUE(svc.RegisterTenant("t", 10.0).ok());
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  const int64_t before = (*orders)->num_rows();

  // Every non-finite double refuses its batch, and the error names the
  // column.
  for (double bad : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    auto out = svc.Ingest(
        "Orders", {{Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{2}),
                    Value(10.0)},
                   {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{2}),
                    Value(bad)}});
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(out.status().message().find("'price'"), std::string::npos)
        << out.status().ToString();
  }

  // Over the wire, a number past the double range reads as +inf: 400, and
  // nothing lands, so a SUM over the table still answers a finite value.
  net::HttpServer server(net::MakeServiceRouter(&svc), {});
  ASSERT_TRUE(server.Start().ok());
  net::Client client("127.0.0.1", server.port());
  auto resp = client.Post("/v1/ingest",
                          R"({"table": "Orders", "rows": [[1, 1, 2, 1e400]]})");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 400);
  server.Stop();
  EXPECT_EQ((*orders)->num_rows(), before);
  EXPECT_EQ((*orders)->version(), 0u);
  auto sum = svc.Answer(
      "SELECT sum(Orders.price) FROM Orders, Cust, Prod "
      "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
      "AND Cust.region = 'N'",
      0.5, "t");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_TRUE(std::isfinite(sum->scalar));
}

// ---------------------------------------------------------------------------
// Concurrent ingest/query/workload over the wire (TSan target)

TEST(IngestServiceTest, ConcurrentIngestQueryWorkloadOverTheWire) {
  storage::Catalog catalog = MakeToyCatalog();
  service::ServiceOptions service_options;
  service_options.num_engines = 2;
  service_options.queue_capacity = 256;
  service::QueryService service(&catalog, service_options);

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 24;
  constexpr int kIngestBatches = 16;
  constexpr int kWorkloadBatches = 8;
  for (int t = 0; t < kReaders; ++t) {
    ASSERT_TRUE(service.RegisterTenant(Format("reader-%d", t), 1e6).ok());
  }
  ASSERT_TRUE(service.RegisterTenant("batcher", 1e6).ok());

  net::ServerOptions server_options;
  server_options.handler_threads = kReaders + 3;
  net::HttpServer server(net::MakeServiceRouter(&service), server_options);
  ASSERT_TRUE(server.Start().ok());

  const std::string sql =
      "SELECT count(*) FROM Orders, Cust, Prod "
      "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
      "AND Cust.region = 'N' AND Prod.cat = 'a'";

  // Version floor/ceiling observed over the wire: `acked` only advances
  // after an ingest 200 is read back, `attempted` before the POST goes out.
  // For any answer, acked-at-send ≤ epoch ≤ attempted-at-receive.
  std::atomic<uint64_t> acked{0}, attempted{0};
  std::atomic<int> failures{0};

  std::thread ingester([&] {
    net::Client client("127.0.0.1", server.port());
    Rng rng(42);
    for (int b = 0; b < kIngestBatches; ++b) {
      net::Json body = net::Json::Object();
      body.Set("table", net::Json::Str("Orders"));
      net::Json rows = net::Json::Array();
      const int64_t n = rng.UniformInt(1, 4);
      for (int64_t r = 0; r < n; ++r) {
        net::Json row = net::Json::Array();
        row.Append(net::Json::Number(
            static_cast<double>(rng.UniformInt(1, 6))));
        row.Append(net::Json::Number(
            static_cast<double>(rng.UniformInt(1, 4))));
        row.Append(net::Json::Number(
            static_cast<double>(rng.UniformInt(1, 5))));
        row.Append(net::Json::Number(10.0 * static_cast<double>(b + 1)));
        rows.Append(std::move(row));
      }
      body.Set("rows", std::move(rows));
      attempted.fetch_add(1, std::memory_order_seq_cst);
      auto resp = client.Post("/v1/ingest", body.Dump());
      if (!resp.ok() || resp->status != 200) {
        ++failures;
        return;
      }
      auto parsed = net::Client::ParseBody(*resp);
      if (!parsed.ok() || parsed->Find("version") == nullptr ||
          parsed->Find("version")->AsNumber() !=
              static_cast<double>(b + 1)) {
        ++failures;
        return;
      }
      acked.store(static_cast<uint64_t>(b) + 1, std::memory_order_seq_cst);
    }
  });

  std::vector<std::thread> readers;
  std::vector<double> reader_spent(kReaders, 0.0);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      net::Client client("127.0.0.1", server.port());
      const std::string tenant = Format("reader-%d", t);
      for (int i = 0; i < kQueriesPerReader; ++i) {
        // A unique ε per request keeps every canonical key distinct, so no
        // answer is ever a replay: each 200 is exactly one ledger spend.
        const double epsilon = 0.001 * (1 + t * kQueriesPerReader + i);
        net::Json body = net::Json::Object();
        body.Set("sql", net::Json::Str(sql));
        body.Set("epsilon", net::Json::Number(epsilon));
        body.Set("tenant", net::Json::Str(tenant));
        const uint64_t lo = acked.load(std::memory_order_seq_cst);
        auto resp = client.Post("/v1/query", body.Dump());
        const uint64_t hi = attempted.load(std::memory_order_seq_cst);
        if (!resp.ok() || resp->status != 200) {
          ++failures;
          continue;
        }
        auto parsed = net::Client::ParseBody(*resp);
        if (!parsed.ok() || parsed->Find("epoch") == nullptr) {
          ++failures;
          continue;
        }
        const double epoch = parsed->Find("epoch")->AsNumber();
        if (epoch < static_cast<double>(lo) ||
            epoch > static_cast<double>(hi)) {
          ++failures;  // an answer from a version that never existed
          continue;
        }
        reader_spent[static_cast<size_t>(t)] += epsilon;
      }
    });
  }

  double batcher_spent = 0.0;
  std::thread workloads([&] {
    net::Client client("127.0.0.1", server.port());
    for (int b = 0; b < kWorkloadBatches; ++b) {
      net::Json body = net::Json::Object();
      body.Set("tenant", net::Json::Str("batcher"));
      net::Json queries = net::Json::Array();
      double batch_eps = 0.0;
      for (int k = 0; k < 2; ++k) {
        const double epsilon = 0.001 * (1000 + b * 2 + k);
        net::Json entry = net::Json::Object();
        entry.Set("sql", net::Json::Str(sql));
        entry.Set("epsilon", net::Json::Number(epsilon));
        queries.Append(std::move(entry));
        batch_eps += epsilon;
      }
      body.Set("queries", std::move(queries));
      auto resp = client.Post("/v1/workload", body.Dump());
      if (!resp.ok() || resp->status != 200) {
        ++failures;
        continue;
      }
      auto parsed = net::Client::ParseBody(*resp);
      if (!parsed.ok() || parsed->Find("queries") == nullptr ||
          parsed->Find("queries")->items().size() != 2) {
        ++failures;
        continue;
      }
      for (const net::Json& entry : parsed->Find("queries")->items()) {
        const net::Json* ok = entry.Find("ok");
        if (ok == nullptr || !ok->AsBool()) ++failures;
      }
      batcher_spent += batch_eps;
    }
  });

  ingester.join();
  for (auto& r : readers) r.join();
  workloads.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);

  // Exact per-tenant accounting: distinct ε per request means no replays —
  // the ledger must hold exactly the sum of what each tenant's 200s cost.
  for (int t = 0; t < kReaders; ++t) {
    auto acct = service.ledger().Account(Format("reader-%d", t));
    ASSERT_TRUE(acct.ok());
    EXPECT_DOUBLE_EQ(acct->spent, reader_spent[static_cast<size_t>(t)]);
  }
  auto batcher = service.ledger().Account("batcher");
  ASSERT_TRUE(batcher.ok());
  EXPECT_DOUBLE_EQ(batcher->spent, batcher_spent);

  service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.ingest_batches, static_cast<uint64_t>(kIngestBatches));
  // Every recompile the hammer needed was either the first compile or a
  // declined/raced extension; extends + misses covers all fresh scaffolds.
  EXPECT_GE(stats.plan_cache.extends + stats.plan_cache.misses, 1u);
}

}  // namespace
}  // namespace dpstarj
