// PlanCache + ScanPlan behavior: cached-plan execution equals the naive
// oracle (exec/naive_executor.h) bit-for-bit, invalidation fires when a
// table grows, equivalent query spellings share one plan, plans over one FK
// edge or measure share one join or weight column, and plans over one
// dimension column and domain, or one dimension's group columns, one
// ordinal table or group-ordinal table, for exactly as long as some plan
// holds it, an ordinal table is shared only for an equal domain, a plan's
// first validated hit builds (or declines) its cells exactly once — also
// when many threads hit it at once — and an extension keeps them,
// extensions append into their parent's arrays and exactly one of several
// racing ones does, a packed grouped plan stores no group code per fact
// row, plans filtering one dimension column share one fact-aligned ordinal
// column until their cells are built, the cache is safe under concurrent
// use and appends (run under TSan via the build-tsan / CI TSan
// configuration), and the plan path never changes Predicate Mechanism noise
// semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/predicate_mechanism.h"
#include "exec/naive_executor.h"
#include "exec/plan_cache.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "service/query_service.h"
#include "test_catalog.h"

namespace dpstarj {
namespace {

using exec::PlanCache;
using exec::PredicateOverrides;
using exec::QueryResult;
using exec::ScanPlan;
using exec::StarJoinExecutor;
using storage::Value;
using testing_fixture::MakeToyCatalog;
using testing_fixture::SweepPlanRows;
using testing_fixture::ToyCountQuery;

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

query::StarJoinQuery ToyGroupedQuery() {
  query::StarJoinQuery q = ToyCountQuery();
  q.name = "toy_grouped";
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  q.group_by = {{"Cust", "region"}, {"Prod", "cat"}};
  return q;
}

// Two signatures over the same Orders→Cust edge with different predicate
// columns: a COUNT filtered on region and a SUM(qty) filtered on tier.
query::StarJoinQuery CustRegionCountQuery() {
  query::StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  q.aggregate = query::AggregateKind::kCount;
  q.predicates.push_back(query::Predicate::Point("Cust", "region", Value("N")));
  return q;
}

query::StarJoinQuery CustTierSumQuery() {
  query::StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  q.predicates.push_back(query::Predicate::Range(
      "Cust", "tier", Value(int64_t{1}), Value(int64_t{2})));
  return q;
}

// The same SUM grouped by region: it shares the tier ordinal table of
// CustTierSumQuery and the Cust group ordinals of ToyGroupedQuery.
query::StarJoinQuery CustTierSumByRegionQuery() {
  query::StarJoinQuery q = CustTierSumQuery();
  q.group_by = {{"Cust", "region"}};
  return q;
}

// Position of dimension `table` in `q`.
size_t DimOf(const query::BoundQuery& q, const std::string& table) {
  for (size_t i = 0; i < q.dims.size(); ++i) {
    if (q.dims[i].table == table) return i;
  }
  ADD_FAILURE() << "no dimension " << table;
  return 0;
}

// A COUNT over both dimensions filtered on Cust.tier and Prod.cat: its
// 4 × 4 class combinations exceed half the fixture's fact rows, so it keeps
// its ordinal columns, and it shares the tier column with CustTierSumQuery
// until that plan's cells are built.
query::StarJoinQuery TierCatCountQuery() {
  query::StarJoinQuery q = ToyCountQuery();
  q.name = "tier_cat_count";
  q.predicates = {query::Predicate::Range("Cust", "tier", Value(int64_t{1}),
                                          Value(int64_t{2})),
                  query::Predicate::Point("Prod", "cat", Value("b"))};
  return q;
}

// The ordinal table `plan` evaluates `q`'s predicate on table.column with;
// null when it has none.
std::shared_ptr<const exec::OrdinalTable> OrdinalTableOf(
    const ScanPlan& plan, const query::BoundQuery& q, const std::string& table,
    const std::string& column) {
  const size_t i = DimOf(q, table);
  for (const auto& pred : q.dims[i].predicates) {
    if (pred.column != column) continue;
    for (const auto& t : plan.dims[i].ordinal_tables) {
      if (t->column_index == pred.column_index && t->domain == pred.domain) {
        return t;
      }
    }
  }
  return nullptr;
}

// The ordinal column `plan`'s row sweep compares `q`'s predicate on
// table.column over; null when it has none.
std::shared_ptr<const exec::OrdinalColumn> OrdinalColumnOf(
    const ScanPlan& plan, const query::BoundQuery& q, const std::string& table,
    const std::string& column) {
  const size_t i = DimOf(q, table);
  if (i >= plan.ordinal_columns.size()) return nullptr;
  for (const auto& pred : q.dims[i].predicates) {
    const int t = plan.dims[i].TableOf(pred);
    if (pred.column == column && t >= 0) {
      return plan.ordinal_columns[i][static_cast<size_t>(t)];
    }
  }
  return nullptr;
}

TEST(PlanCacheTest, CachedPlanMatchesNaiveAndCountsHits) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  for (const auto& q : {ToyCountQuery(), ToyGroupedQuery()}) {
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto naive = exec::ExecuteNaive(*bound);
    ASSERT_TRUE(naive.ok());

    auto plan = cache.GetOrCompile(*bound);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (int rep = 0; rep < 3; ++rep) {
      auto got = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                                  **plan);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(*naive, *got);
    }
    auto again = cache.GetOrCompile(*bound);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->get(), plan->get());  // same shared plan object
  }
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, InvalidatesWhenATableGrows) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto bound = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());
  auto before = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                                 **plan);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->scalar, 2.0);  // fixture ground truth

  // Append a matching fact row (and a new customer it references): the
  // cached plan's row counts are stale now.
  auto cust = catalog.GetTable("Cust");
  ASSERT_TRUE(cust.ok());
  ASSERT_TRUE((*cust)->AppendRow({Value(int64_t{7}), Value("N"), Value(int64_t{1})}).ok());
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{7}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());

  // Executing the stale plan directly is refused, not silently wrong.
  auto stale = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                                **plan);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // The cache notices and recompiles.
  auto recompiled = cache.GetOrCompile(*bound);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_NE(recompiled->get(), plan->get());
  // A grown *dimension* is an identity invalidation — there is no append
  // path to splice, so the extension counter must stay untouched.
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  EXPECT_EQ(cache.GetStats().invalidated_identity, 1u);
  EXPECT_EQ(cache.GetStats().invalidated_append, 0u);
  EXPECT_EQ(cache.GetStats().extends, 0u);

  auto naive = exec::ExecuteNaive(*bound);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->scalar, 3.0);  // the appended row matches region N × cat a
  auto got = executor.Execute(*bound, PredicateOverrides(bound->dims.size()),
                              **recompiled);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*naive, *got);
}

TEST(PlanCacheTest, ExtendsInsteadOfInvalidatingWhenOnlyFactGrows) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto bound = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());

  // Grow only the fact table (the FK resolves to an existing customer): the
  // stale entry is revalidated by tail extension, not thrown away.
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());
  auto grown = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(grown.ok());
  auto extended = cache.GetOrCompile(*grown);
  ASSERT_TRUE(extended.ok());
  EXPECT_NE(extended->get(), plan->get());  // a new immutable plan object

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);  // only the initial compile
  EXPECT_EQ(stats.hits, 1u);    // the extension counts as a (revalidated) hit
  EXPECT_EQ(stats.extends, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.invalidated_append, 0u);
  EXPECT_EQ(stats.invalidated_identity, 0u);

  // The extended plan answers exactly like the oracle on the grown table,
  // and a re-lookup at the same row count is a plain hit on it.
  auto naive = exec::ExecuteNaive(*grown);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->scalar, 3.0);  // appended row: ck=1 (region N) × pk=1 (cat a)
  auto got = executor.Execute(*grown, PredicateOverrides(grown->dims.size()),
                              **extended);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*naive, *got);
  auto again = cache.GetOrCompile(*grown);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), extended->get());
  EXPECT_EQ(cache.GetStats().hits, 2u);
  EXPECT_EQ(cache.GetStats().extends, 1u);
}

TEST(PlanCacheTest, CountsAppendInvalidationWhenExtensionIsDeclined) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);

  // Group by a fact column so the plan packs qty (fixture range 1..5 →
  // base 1, 3-bit field) into the group code.
  query::StarJoinQuery q = ToyCountQuery();
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"price", 1.0}};
  q.group_by = {{"Orders", "qty"}};
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok());

  // qty=9 has ordinal 8 > the field mask 7: the tail cannot be spliced into
  // the compiled layout, so this append-stale entry must recompile and land
  // in the *append* invalidation counter.
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());
  auto grown = binder.Bind(q);
  ASSERT_TRUE(grown.ok());
  auto recompiled = cache.GetOrCompile(*grown);
  ASSERT_TRUE(recompiled.ok());
  EXPECT_NE(recompiled->get(), plan->get());

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.extends, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.invalidated_append, 1u);
  EXPECT_EQ(stats.invalidated_identity, 0u);
}

TEST(PlanCacheTest, EquivalentSpellingsShareOnePlan) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  // Same query, predicates declared in opposite order: the canonical key
  // collapses them, so the second bind is a cache hit.
  query::StarJoinQuery q1;
  q1.fact_table = "Orders";
  q1.joined_tables = {"Cust"};
  q1.aggregate = query::AggregateKind::kCount;
  q1.predicates.push_back(query::Predicate::Point("Cust", "region", Value("N")));
  q1.predicates.push_back(
      query::Predicate::Range("Cust", "tier", Value(int64_t{1}), Value(int64_t{2})));
  query::StarJoinQuery q2 = q1;
  std::swap(q2.predicates[0], q2.predicates[1]);

  auto b1 = binder.Bind(q1);
  auto b2 = binder.Bind(q2);
  ASSERT_TRUE(b1.ok() && b2.ok());

  // The hit is the plan's first, so it publishes the plan with cells (four
  // tier classes, twelve fact rows) in the compiled plan's place; both
  // spellings then resolve to that one entry.
  auto p1 = cache.GetOrCompile(*b1);
  auto p2 = cache.GetOrCompile(*b2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ((*p1)->cells, nullptr);
  EXPECT_NE((*p2)->cells, nullptr);
  auto p3 = cache.GetOrCompile(*b1);
  ASSERT_TRUE(p3.ok());
  EXPECT_EQ(p2->get(), p3->get());
  EXPECT_EQ(cache.GetStats().misses, 1u);
  EXPECT_EQ(cache.GetStats().hits, 2u);
  EXPECT_EQ(cache.GetStats().cell_builds, 1u);

  auto naive = exec::ExecuteNaive(*b2);
  ASSERT_TRUE(naive.ok());
  auto got =
      executor.Execute(*b2, PredicateOverrides(b2->dims.size()), **p2);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*naive, *got);
}

TEST(PlanCacheTest, BoundIndependentKeySharesPlanAcrossFilterConstants) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  // Same logical query, four different tier ranges: the scaffold is bound-
  // independent, so all four share one cache entry (and each still gets its
  // own correct answer through its own predicate bitmap). The first hit
  // replaces the compiled plan with the plan with cells; every later lookup
  // returns that one.
  std::shared_ptr<const ScanPlan> first;
  for (int64_t hi = 1; hi <= 4; ++hi) {
    query::StarJoinQuery q;
    q.fact_table = "Orders";
    q.joined_tables = {"Cust"};
    q.aggregate = query::AggregateKind::kCount;
    q.predicates.push_back(query::Predicate::Range(
        "Cust", "tier", Value(int64_t{1}), Value(hi)));
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = cache.GetOrCompile(*bound);
    ASSERT_TRUE(plan.ok());
    if (hi == 2) {
      first = *plan;
    } else if (hi > 2) {
      EXPECT_EQ(first.get(), plan->get()) << "hi=" << hi;
    }
    auto naive = exec::ExecuteNaive(*bound);
    auto got =
        executor.Execute(*bound, PredicateOverrides(bound->dims.size()), **plan);
    ASSERT_TRUE(naive.ok() && got.ok());
    ExpectBitIdentical(*naive, *got);
  }
  EXPECT_EQ(cache.GetStats().misses, 1u);
  EXPECT_EQ(cache.GetStats().hits, 3u);
  EXPECT_EQ(cache.GetStats().cell_builds, 1u);
}

TEST(PlanCacheTest, EmptyGroupByDimensionCompilesAndAnswersEmpty) {
  // A grouped query joining a dimension with zero rows: every fact row
  // resolves to the absent sentinel, so the answer is empty — the plan path
  // must agree with the oracle instead of touching empty rep_rows.
  storage::Catalog catalog;
  storage::Schema dim_schema(
      {storage::Field("k", storage::ValueType::kInt64),
       storage::Field("v", storage::ValueType::kInt64,
                      storage::AttributeDomain::IntRange(0, 2))});
  auto dim = *storage::Table::Create("D", dim_schema, "k");  // left empty
  storage::Schema fact_schema({storage::Field("fk", storage::ValueType::kInt64),
                               storage::Field("m", storage::ValueType::kInt64)});
  auto fact = *storage::Table::Create("F", fact_schema);
  for (int64_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(fact->AppendRow({Value(r), Value(int64_t{1})}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(dim).ok());
  ASSERT_TRUE(catalog.AddTable(fact).ok());
  ASSERT_TRUE(catalog.AddForeignKey({"F", "fk", "D", "k"}).ok());

  query::StarJoinQuery q;
  q.fact_table = "F";
  q.joined_tables = {"D"};
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"m", 1.0}};
  q.group_by = {{"D", "v"}};
  query::Binder binder(&catalog);
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  auto naive = exec::ExecuteNaive(*bound);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(naive->groups.empty());

  StarJoinExecutor executor;
  PlanCache cache(4);
  auto plan = cache.GetOrCompile(*bound);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto got =
      executor.Execute(*bound, PredicateOverrides(bound->dims.size()), **plan);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectBitIdentical(*naive, *got);
}

TEST(PlanCacheTest, PlansShareJoinAndWeightColumnsWhileHeld) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto count_q = binder.Bind(CustRegionCountQuery());
  auto sum_q = binder.Bind(CustTierSumQuery());
  ASSERT_TRUE(count_q.ok() && sum_q.ok());
  auto count_plan = cache.GetOrCompile(*count_q);
  auto sum_plan = cache.GetOrCompile(*sum_q);
  ASSERT_TRUE(count_plan.ok() && sum_plan.ok());
  ASSERT_NE(count_plan->get(), sum_plan->get());  // two signatures
  // One join column for the shared edge; the SUM adds its weight column.
  const auto column = (*count_plan)->fact_dim_row[0];
  EXPECT_EQ((*sum_plan)->fact_dim_row[0].get(), column.get());
  EXPECT_EQ((*count_plan)->weights, nullptr);
  ASSERT_NE((*sum_plan)->weights, nullptr);
  EXPECT_EQ(column->fact_rows, 12);
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.column_builds, 2u);  // the join column + the weights
  EXPECT_EQ(stats.column_reuses, 1u);  // the SUM's join column

  // A fact append: the first lookup extends the edge's column over the tail
  // and the second reuses that extension, so both plans stay on one object.
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{9}),
                       Value(90.0)})
          .ok());
  auto count_ext = cache.GetOrCompile(*count_q);
  auto sum_ext = cache.GetOrCompile(*sum_q);
  ASSERT_TRUE(count_ext.ok() && sum_ext.ok());
  const auto extended = (*count_ext)->fact_dim_row[0];
  EXPECT_NE(extended.get(), column.get());
  EXPECT_EQ((*sum_ext)->fact_dim_row[0].get(), extended.get());
  EXPECT_EQ(extended->fact_rows, 13);
  EXPECT_EQ((*sum_ext)->weights->fact_rows, 13);
  stats = cache.GetStats();
  EXPECT_EQ(stats.extends, 2u);
  // One build per edge (plus the SUM's weights); the second extend reuses.
  EXPECT_EQ(stats.column_builds, 2u + 2u);
  EXPECT_EQ(stats.column_reuses, 1u + 1u);
  // Compiled columns hold no slack, so the first extension of each copied
  // it into a buffer twice the grown size.
  EXPECT_EQ(stats.column_copies, 2u);
  for (const auto* q : {&*count_q, &*sum_q}) {
    auto plan = cache.GetOrCompile(*q);
    ASSERT_TRUE(plan.ok());
    auto naive = exec::ExecuteNaive(*q);
    auto got =
        executor.Execute(*q, PredicateOverrides(q->dims.size()), **plan);
    ASSERT_TRUE(naive.ok() && got.ok());
    ExpectBitIdentical(*naive, *got);
  }
  // The next append lands in those buffers: no copy.
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{2}), Value(int64_t{3}), Value(int64_t{4}),
                       Value(40.0)})
          .ok());
  auto count_again = cache.GetOrCompile(*count_q);
  auto sum_again = cache.GetOrCompile(*sum_q);
  ASSERT_TRUE(count_again.ok() && sum_again.ok());
  EXPECT_EQ((*count_again)->fact_dim_row[0]->rows.data(),
            extended->rows.data());
  EXPECT_EQ((*sum_again)->weights->values.data(),
            (*sum_ext)->weights->values.data());
  EXPECT_EQ(cache.GetStats().column_copies, 2u);

  // A dimension append changes the edge itself: a new column object, again
  // shared by both recompiled plans.
  auto cust = catalog.GetTable("Cust");
  ASSERT_TRUE(cust.ok());
  ASSERT_TRUE(
      (*cust)->AppendRow({Value(int64_t{7}), Value("N"), Value(int64_t{1})}).ok());
  std::shared_ptr<const ScanPlan> held_count =
      cache.GetOrCompile(*count_q).ValueOr(nullptr);
  std::shared_ptr<const ScanPlan> held_sum =
      cache.GetOrCompile(*sum_q).ValueOr(nullptr);
  ASSERT_TRUE(held_count != nullptr && held_sum != nullptr);
  const std::weak_ptr<const exec::JoinColumn> watched =
      held_count->fact_dim_row[0];
  EXPECT_NE(held_count->fact_dim_row[0].get(), extended.get());
  EXPECT_EQ(held_sum->fact_dim_row[0].get(), held_count->fact_dim_row[0].get());
  EXPECT_EQ(held_count->fact_dim_row[0]->dim_rows, 7);

  // The column lives exactly as long as some plan references it: Clear()
  // alone leaves it to the plans this test still holds.
  cache.Clear();
  EXPECT_FALSE(watched.expired());
  held_count.reset();
  EXPECT_FALSE(watched.expired());
  held_sum.reset();
  EXPECT_TRUE(watched.expired());
}

// Plans over one dimension hold one ordinal table per predicate (column,
// domain) and one group-ordinal table per list of group columns; a
// dimension append gives the recompiled plans new tables over the new rows;
// and a table lives exactly as long as some plan holds it. The column
// counters still count join and weight columns only.
TEST(PlanCacheTest, PlansShareOrdinalTablesAndGroupOrdinalsWhileHeld) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  std::vector<query::BoundQuery> bound;
  for (const auto& q : {CustRegionCountQuery(), ToyCountQuery(),
                        ToyGroupedQuery(), CustTierSumByRegionQuery()}) {
    auto b = binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(*b));
  }
  const query::BoundQuery& region_q = bound[0];
  const query::BoundQuery& toy_q = bound[1];
  const query::BoundQuery& grouped_q = bound[2];
  const query::BoundQuery& by_region_q = bound[3];
  auto compile_all = [&]() {
    std::vector<std::shared_ptr<const ScanPlan>> plans;
    for (const auto& q : bound) {
      plans.push_back(cache.GetOrCompile(q).ValueOr(nullptr));
      EXPECT_NE(plans.back(), nullptr);
    }
    return plans;
  };
  auto expect_naive_answers = [&](
      const std::vector<std::shared_ptr<const ScanPlan>>& plans) {
    for (size_t k = 0; k < bound.size(); ++k) {
      const query::BoundQuery& q = bound[k];
      auto naive = exec::ExecuteNaive(q);
      auto got =
          executor.Execute(q, PredicateOverrides(q.dims.size()), *plans[k]);
      ASSERT_TRUE(naive.ok() && got.ok());
      ExpectBitIdentical(*naive, *got);
    }
  };

  std::vector<std::shared_ptr<const ScanPlan>> plans = compile_all();
  ASSERT_EQ(plans.size(), 4u);
  // Both filters on Cust.region read one table; both groupings by region
  // one group-ordinal table.
  const auto region = OrdinalTableOf(*plans[0], region_q, "Cust", "region");
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(OrdinalTableOf(*plans[1], toy_q, "Cust", "region"), region);
  EXPECT_EQ(OrdinalTableOf(*plans[2], grouped_q, "Cust", "region"), region);
  EXPECT_EQ(region->ordinals, (std::vector<int64_t>{0, 0, 1, 1, 2, 2}));
  const auto groups = plans[2]->dims[DimOf(grouped_q, "Cust")].groups;
  ASSERT_NE(groups, nullptr);
  EXPECT_EQ(plans[3]->dims[DimOf(by_region_q, "Cust")].groups, groups);
  EXPECT_EQ(groups->rep_rows, (std::vector<int64_t>{0, 2, 4}));
  EXPECT_EQ(plans[0]->dims[0].groups, nullptr);  // not grouped
  expect_naive_answers(plans);
  // Join columns: Cust built once, Prod once; weights once. The tables
  // above are not counted.
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.column_builds, 3u);
  EXPECT_EQ(stats.column_reuses, 5u);

  // A dimension append: the recompiled plans get new tables covering the
  // new rows, shared again.
  auto cust = catalog.GetTable("Cust");
  ASSERT_TRUE(cust.ok());
  ASSERT_TRUE(
      (*cust)->AppendRow({Value(int64_t{7}), Value("W"), Value(int64_t{3})}).ok());
  ASSERT_TRUE(
      (*cust)->AppendRow({Value(int64_t{8}), Value("S"), Value(int64_t{2})}).ok());
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(
      (*orders)
          ->AppendRow({Value(int64_t{8}), Value(int64_t{1}), Value(int64_t{6}),
                       Value(60.0)})
          .ok());
  plans = compile_all();
  auto grown = OrdinalTableOf(*plans[0], region_q, "Cust", "region");
  ASSERT_NE(grown, nullptr);
  EXPECT_NE(grown, region);
  EXPECT_EQ(OrdinalTableOf(*plans[1], toy_q, "Cust", "region"), grown);
  // "W" is outside the region domain.
  EXPECT_EQ(grown->ordinals, (std::vector<int64_t>{0, 0, 1, 1, 2, 2, -1, 1}));
  auto grown_groups = plans[2]->dims[DimOf(grouped_q, "Cust")].groups;
  ASSERT_NE(grown_groups, nullptr);
  EXPECT_NE(grown_groups, groups);
  EXPECT_EQ(plans[3]->dims[DimOf(by_region_q, "Cust")].groups, grown_groups);
  EXPECT_EQ(grown_groups->ordinal, (std::vector<int32_t>{0, 0, 1, 1, 2, 2, 3, 1}));
  expect_naive_answers(plans);

  // A table lives exactly as long as some plan holds it: once the cached
  // plans are its only holders, Clear() frees it with them.
  const std::weak_ptr<const exec::OrdinalTable> watched_table = grown;
  const std::weak_ptr<const exec::GroupOrdinals> watched_groups = grown_groups;
  grown.reset();
  grown_groups.reset();
  plans.clear();
  EXPECT_FALSE(watched_table.expired());
  EXPECT_FALSE(watched_groups.expired());
  cache.Clear();
  EXPECT_TRUE(watched_table.expired());
  EXPECT_TRUE(watched_groups.expired());
}

// Two signatures filtering Cust.region hold one ordinal column: the region
// ordinal of every fact row's customer, one byte per row. The first hit
// that builds a plan's cells drops its columns, a plan whose cells are
// declined keeps them, and a column lives exactly as long as some plan
// holds it. The column counters count join and weight columns only.
TEST(PlanCacheTest, PlansShareOrdinalColumnsUntilTheirCellsAreBuilt) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto region_q = binder.Bind(CustRegionCountQuery());  // gets cells
  auto toy_q = binder.Bind(ToyCountQuery());            // keeps its rows
  ASSERT_TRUE(region_q.ok() && toy_q.ok());
  std::shared_ptr<const ScanPlan> region_plan =
      cache.GetOrCompile(*region_q).ValueOr(nullptr);
  std::shared_ptr<const ScanPlan> toy_plan =
      cache.GetOrCompile(*toy_q).ValueOr(nullptr);
  ASSERT_TRUE(region_plan != nullptr && toy_plan != nullptr);
  ASSERT_NE(region_plan, toy_plan);
  std::shared_ptr<const exec::OrdinalColumn> column =
      OrdinalColumnOf(*region_plan, *region_q, "Cust", "region");
  ASSERT_NE(column, nullptr);
  EXPECT_EQ(OrdinalColumnOf(*toy_plan, *toy_q, "Cust", "region"), column);
  EXPECT_EQ(column->join, region_plan->fact_dim_row[0]);
  EXPECT_EQ(column->table,
            OrdinalTableOf(*region_plan, *region_q, "Cust", "region"));
  ASSERT_EQ(column->width, 1);
  // Orders' customers 1..6 two rows each; regions N, N, S, S, E, E.
  EXPECT_EQ(std::vector<uint8_t>(column->narrow.begin(), column->narrow.end()),
            (std::vector<uint8_t>{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}));
  ScanPlan without = *region_plan;  // a byte per fact row
  without.ordinal_columns.clear();
  EXPECT_EQ(region_plan->ApproxBytes() - without.ApproxBytes(), 12u);
  // The join columns count as before: Cust built once and reused, Prod
  // built once, and no copies.
  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.column_builds, 2u);
  EXPECT_EQ(stats.column_reuses, 1u);
  EXPECT_EQ(stats.column_copies, 0u);

  // First hits: the region plan builds cells and holds no columns; the
  // two-dimension count declines and keeps its own.
  std::shared_ptr<const ScanPlan> region_cells =
      cache.GetOrCompile(*region_q).ValueOr(nullptr);
  std::shared_ptr<const ScanPlan> toy_hit =
      cache.GetOrCompile(*toy_q).ValueOr(nullptr);
  ASSERT_TRUE(region_cells != nullptr && toy_hit != nullptr);
  ASSERT_NE(region_cells->cells, nullptr);
  EXPECT_TRUE(region_cells->ordinal_columns.empty());
  EXPECT_EQ(toy_hit->cells, nullptr);
  EXPECT_EQ(OrdinalColumnOf(*toy_hit, *toy_q, "Cust", "region"), column);
  stats = cache.GetStats();
  EXPECT_EQ(stats.cell_builds, 1u);
  EXPECT_EQ(stats.cell_declines, 1u);
  EXPECT_EQ(stats.column_builds, 2u);
  EXPECT_EQ(stats.column_reuses, 1u);
  for (const auto& [q, plan] :
       {std::make_pair(&*region_q, region_plan),
        std::make_pair(&*region_q, region_cells),
        std::make_pair(&*toy_q, toy_hit)}) {
    auto naive = exec::ExecuteNaive(*q);
    auto got =
        executor.Execute(*q, PredicateOverrides(q->dims.size()), *plan);
    ASSERT_TRUE(naive.ok() && got.ok());
    ExpectBitIdentical(*naive, *got);
  }

  // Once the cached declined plan is the column's last holder, Clear()
  // frees it.
  const std::weak_ptr<const exec::OrdinalColumn> watched = column;
  column.reset();
  region_plan.reset();
  toy_plan.reset();
  region_cells.reset();
  toy_hit.reset();
  EXPECT_FALSE(watched.expired());
  cache.Clear();
  EXPECT_TRUE(watched.expired());
}

// Two categorical domains of one size render alike (AttributeDomain's
// ToString() reads cat{3} for both), so the store must compare domains: a
// predicate over the reordered domain gets a table of its own, and its
// answers, from rows and from cells, match the oracle.
TEST(PlanCacheTest, OrdinalTablesAreSharedOnlyForAnEqualDomain) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  auto bound = binder.Bind(CustRegionCountQuery());  // region = 'N'
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  query::BoundQuery reordered = *bound;
  query::BoundPredicate& pred = reordered.dims[0].predicates[0];
  pred.domain = storage::AttributeDomain::Categorical({"E", "N", "S"});
  ASSERT_EQ(pred.domain.ToString(),
            bound->dims[0].predicates[0].domain.ToString());
  pred.lo_index = pred.hi_index = *pred.domain.IndexOf(Value("S"));
  ASSERT_NE(pred.lo_index, bound->dims[0].predicates[0].lo_index);

  exec::PlanColumnStore columns;
  auto plan = ScanPlan::Compile(*bound, columns);
  auto other = ScanPlan::Compile(reordered, columns);
  auto again = ScanPlan::Compile(reordered, columns);
  ASSERT_TRUE(plan.ok() && other.ok() && again.ok());
  const auto& mine = other->dims[0].ordinal_tables;
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_NE(mine[0], plan->dims[0].ordinal_tables[0]);
  EXPECT_EQ(mine[0]->domain, pred.domain);
  EXPECT_EQ(mine[0]->ordinals, (std::vector<int64_t>{1, 1, 2, 2, 0, 0}));
  // The table under the shared key stays the first domain's: a table for a
  // colliding domain is the compile's own.
  EXPECT_NE(again->dims[0].ordinal_tables[0], mine[0]);
  EXPECT_EQ(again->dims[0].ordinal_tables[0]->ordinals, mine[0]->ordinals);

  StarJoinExecutor executor;
  for (const auto& [q, p] :
       {std::make_pair(&*bound, &*plan), std::make_pair(&reordered, &*other)}) {
    auto naive = exec::ExecuteNaive(*q);
    ASSERT_TRUE(naive.ok());
    auto rows = executor.Execute(*q, PredicateOverrides(q->dims.size()), *p);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ExpectBitIdentical(*naive, *rows);
    auto with_cells = ScanPlan::WithCells(*p, *q, uint64_t{1} << 20);
    ASSERT_TRUE(with_cells.ok()) << with_cells.status().ToString();
    ASSERT_TRUE(with_cells->CellsServe(*q, PredicateOverrides()));
    auto cells =
        executor.Execute(*q, PredicateOverrides(q->dims.size()), *with_cells);
    ASSERT_TRUE(cells.ok()) << cells.status().ToString();
    ExpectBitIdentical(*naive, *cells);
  }
  EXPECT_EQ(exec::ExecuteNaive(reordered)->scalar, 4.0);  // the S rows
}

// A packed grouped plan stores no group code per fact row: the sweep and the
// cell build pack each code from the join columns when they read it. So its
// bytes exceed those of the same joins ungrouped by the group ordinals of
// the dimension rows only, far less than a uint64 per fact row.
TEST(PlanCacheTest, PackedGroupedPlanHoldsNoPerRowCodes) {
  storage::Catalog catalog = MakeToyCatalog();
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  for (int64_t r = 0; r < 500; ++r) {
    ASSERT_TRUE((*orders)->AppendRow((*orders)->GetRow(r % 12)).ok());
  }
  query::Binder binder(&catalog);
  const query::StarJoinQuery grouped = ToyGroupedQuery();
  query::StarJoinQuery flat = grouped;
  flat.group_by.clear();
  auto grouped_q = binder.Bind(grouped);
  auto flat_q = binder.Bind(flat);
  ASSERT_TRUE(grouped_q.ok() && flat_q.ok());
  exec::PlanColumnStore columns;
  auto grouped_plan = ScanPlan::Compile(*grouped_q, columns);
  auto flat_plan = ScanPlan::Compile(*flat_q, columns);
  ASSERT_TRUE(grouped_plan.ok() && flat_plan.ok());
  ASSERT_TRUE(grouped_plan->grouped);
  ASSERT_FALSE(grouped_plan->numbered_codes);
  EXPECT_EQ(grouped_plan->codes.size(), 0u);
  const size_t fact_rows = static_cast<size_t>(grouped_plan->fact_rows());
  EXPECT_LT(grouped_plan->ApproxBytes(),
            flat_plan->ApproxBytes() + 8 * fact_rows);
}

TEST(PlanCacheTest, ConcurrentSharedCacheIsSafe) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  auto cache = std::make_shared<PlanCache>(4);

  // Six signatures sharing FK edges (all join Orders→Cust, three also
  // Orders→Prod; three SUM the same measure), predicate columns (three
  // filter Cust.region, three Cust.tier) and group columns (two group by
  // Cust.region), so concurrent compiles and extends race on the same join
  // and weight columns, ordinal tables and group ordinals, and on the
  // ordinal columns that the plans without cells keep (the tier-and-cat
  // count and the toy count share Prod.cat's, and the tier-and-cat count
  // builds Cust.tier's while the tier sums' compiles do).
  std::vector<query::BoundQuery> bound;
  for (const auto& q : {ToyCountQuery(), ToyGroupedQuery(),
                        CustRegionCountQuery(), CustTierSumQuery(),
                        CustTierSumByRegionQuery(), TierCatCountQuery()}) {
    auto b = binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(*b));
  }
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());

  // Appends exclude scans, as the service's per-table lock makes them.
  std::shared_mutex table_mu;
  std::atomic<int> failures{0};
  std::atomic<int> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      StarJoinExecutor local;
      for (int i = 0; i < 50; ++i) {
        if (t == 0 && i % 16 == 7) cache->Clear();  // exercise the clear race
        const query::BoundQuery& q =
            bound[static_cast<size_t>(t + i) % bound.size()];
        std::shared_lock<std::shared_mutex> lock(table_mu);
        auto plan = cache->GetOrCompile(q);
        ++lookups;
        if (!plan.ok()) {
          ++failures;
          continue;
        }
        auto got =
            local.Execute(q, PredicateOverrides(q.dims.size()), **plan);
        auto expected = exec::ExecuteNaive(q);
        if (!got.ok() || !expected.ok() || got->scalar != expected->scalar ||
            got->groups != expected->groups) {
          ++failures;
        }
      }
    });
  }
  // Interleaved fact appends: each lands once the readers are further in, so
  // stale entries get extended while other threads compile over the edges.
  threads.emplace_back([&]() {
    for (int k = 1; k <= 5; ++k) {
      while (lookups.load() < 60 * k) std::this_thread::yield();
      std::unique_lock<std::shared_mutex> lock(table_mu);
      if (!(*orders)
               ->AppendRow({Value(int64_t{k}), Value(int64_t{1 + k % 4}),
                            Value(int64_t{k}), Value(10.0 * k)})
               .ok()) {
        ++failures;
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // However the races went, the plans now cached sit on one join column per
  // edge, one ordinal table per predicate column, one group-ordinal table
  // per grouping and one ordinal column per (edge, table): every
  // signature's Orders→Cust column, Cust.region table, Cust groups and,
  // among the plans without cells, Prod.cat column are the same objects.
  std::shared_ptr<const exec::JoinColumn> cust_column;
  std::shared_ptr<const exec::OrdinalTable> region_table;
  std::shared_ptr<const exec::GroupOrdinals> cust_groups;
  std::shared_ptr<const exec::OrdinalColumn> cat_column;
  for (const auto& q : bound) {
    auto plan = cache->GetOrCompile(q);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ((*plan)->fact_rows(), 17);
    const size_t i = DimOf(q, "Cust");
    if (cust_column == nullptr) cust_column = (*plan)->fact_dim_row[i];
    EXPECT_EQ((*plan)->fact_dim_row[i].get(), cust_column.get());
    if (auto table = OrdinalTableOf(**plan, q, "Cust", "region")) {
      if (region_table == nullptr) region_table = table;
      EXPECT_EQ(table, region_table);
    }
    if (const auto& groups = (*plan)->dims[i].groups) {
      if (cust_groups == nullptr) cust_groups = groups;
      EXPECT_EQ(groups, cust_groups);
    }
    if (q.dims.size() > 1) {
      auto column = OrdinalColumnOf(**plan, q, "Prod", "cat");
      if (column != nullptr) {
        EXPECT_EQ(column->fact_rows, 17);
        if (cat_column == nullptr) cat_column = column;
        EXPECT_EQ(column, cat_column);
      }
    }
  }
  EXPECT_NE(region_table, nullptr);
  EXPECT_NE(cust_groups, nullptr);
  EXPECT_NE(cat_column, nullptr);
}

// Orders→Cust by region has three classes, within half the fixture's twelve
// fact rows, so its first hit builds cells; the two-dimension count has
// 3 × 4 = 12 class combinations and is kept on its fact rows.
TEST(PlanCacheTest, FirstHitBuildsCellsExactlyOnce) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto bound = binder.Bind(CustRegionCountQuery());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto compiled = cache.GetOrCompile(*bound);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ((*compiled)->cells, nullptr);  // compiles never build cells

  obs::Trace trace;
  auto first_hit = cache.GetOrCompile(*bound, &trace);
  ASSERT_TRUE(first_hit.ok());
  EXPECT_TRUE(trace.plan_cache_hit);
  EXPECT_TRUE(trace.touched(obs::Stage::kPlanCells));
  ASSERT_NE((*first_hit)->cells, nullptr);
  EXPECT_EQ((*first_hit)->cells->classes[0].num_rows, 3);
  EXPECT_EQ((*first_hit)->cells->num_cells(), 3);

  obs::Trace later_trace;
  auto later = cache.GetOrCompile(*bound, &later_trace);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->get(), first_hit->get());
  EXPECT_FALSE(later_trace.touched(obs::Stage::kPlanCells));

  auto declined = binder.Bind(ToyCountQuery());
  ASSERT_TRUE(declined.ok());
  auto row_plan = cache.GetOrCompile(*declined);
  ASSERT_TRUE(row_plan.ok());
  for (int rep = 0; rep < 3; ++rep) {
    auto hit = cache.GetOrCompile(*declined);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->get(), row_plan->get());
    EXPECT_EQ((*hit)->cells, nullptr);
  }

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.cell_builds, 1u);
  EXPECT_EQ(stats.cell_declines, 1u);

  // Both layouts answer like the oracle, under every region the Predicate
  // Mechanism could draw.
  for (const auto* b : {&*bound, &*declined}) {
    auto plan = cache.GetOrCompile(*b);
    ASSERT_TRUE(plan.ok());
    for (int64_t region = 0; region < 3; ++region) {
      PredicateOverrides overrides(b->dims.size());
      for (size_t i = 0; i < b->dims.size(); ++i) {
        std::vector<query::BoundPredicate> preds = b->dims[i].predicates;
        for (auto& p : preds) p.lo_index = p.hi_index = region;
        overrides[i] = std::move(preds);
      }
      EXPECT_EQ((*plan)->CellsServe(*b, overrides), b == &*bound);
      auto naive = exec::ExecuteNaive(*b, overrides);
      auto got = executor.Execute(*b, overrides, **plan);
      ASSERT_TRUE(naive.ok() && got.ok());
      ExpectBitIdentical(*naive, *got);
    }
  }
}

// Many threads take a compiled plan's first hits at once: exactly one
// builds the cells, the others are served the plan on its fact rows
// meanwhile, and every answer matches the oracle. Under TSan this is the
// race check of the build-and-publish path.
TEST(PlanCacheTest, ConcurrentFirstHitsBuildCellsOnce) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  for (int round = 0; round < 20; ++round) {
    PlanCache cache(8);
    auto bound = binder.Bind(CustTierSumQuery());
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ASSERT_TRUE(cache.GetOrCompile(*bound).ok());
    auto naive = exec::ExecuteNaive(*bound);
    ASSERT_TRUE(naive.ok());

    std::atomic<int> ready{0};
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&]() {
        ++ready;
        while (ready.load() < 8) std::this_thread::yield();
        StarJoinExecutor local;
        for (int i = 0; i < 4; ++i) {
          auto plan = cache.GetOrCompile(*bound);
          auto got = plan.ok() ? local.Execute(*bound, PredicateOverrides(),
                                               **plan)
                               : Result<QueryResult>(plan.status());
          if (!got.ok() || got->scalar != naive->scalar) ++failures;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    PlanCache::Stats stats = cache.GetStats();
    EXPECT_EQ(stats.hits, 32u);
    EXPECT_EQ(stats.cell_builds, 1u);
    EXPECT_EQ(stats.cell_declines, 0u);
    auto plan = cache.GetOrCompile(*bound);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE((*plan)->cells, nullptr);
  }
}

// Several threads extend one stale plan at once while others sweep it
// (under TSan, the race check of AppendArray's claim). The plan was
// extended once, so each of its columns has room for the tail: the first
// build of each column appends in place, every other build copies and is
// counted, each extension equals a fresh compile, and the old plan's sweep
// answers exactly as before the ingest throughout.
TEST(PlanCacheTest, RacingExtensionsOfOneStalePlanAppendOnce) {
  constexpr int kExtenders = 4;
  constexpr int kReaders = 2;
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  StarJoinExecutor executor;
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  // Two join columns and a weight column.
  const query::StarJoinQuery shape = ToyGroupedQuery();
  exec::PlanColumnStore columns;
  auto first = binder.Bind(shape);
  ASSERT_TRUE(first.ok());
  auto compiled = ScanPlan::Compile(*first, columns);
  ASSERT_TRUE(compiled.ok());
  const std::vector<Value> row = {Value(int64_t{3}), Value(int64_t{1}),
                                  Value(int64_t{2}), Value(20.0)};
  ASSERT_TRUE((*orders)->AppendRow(row).ok());
  auto old_bound = binder.Bind(shape);
  ASSERT_TRUE(old_bound.ok());
  auto old = ScanPlan::ExtendFrom(*compiled, *old_bound, columns);
  ASSERT_TRUE(old.ok());
  const QueryResult old_answer = SweepPlanRows(*old, *old_bound);
  auto executed = executor.Execute(*old_bound, PredicateOverrides(), *old);
  ASSERT_TRUE(executed.ok());
  ExpectBitIdentical(*executed, old_answer);

  ASSERT_TRUE((*orders)->AppendRow(row).ok());
  auto grown = binder.Bind(shape);
  ASSERT_TRUE(grown.ok());
  const exec::PlanColumnStore::Stats before = columns.GetStats();
  std::vector<Result<ScanPlan>> extended(
      kExtenders, Status::Internal("not extended"));
  std::atomic<int> ready{0};
  std::atomic<int> extending{kExtenders};
  std::atomic<int> stale_answers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kExtenders + kReaders; ++t) {
    threads.emplace_back([&, t]() {
      ++ready;
      while (ready.load() < kExtenders + kReaders) std::this_thread::yield();
      if (t < kExtenders) {
        extended[static_cast<size_t>(t)] =
            ScanPlan::ExtendFrom(*old, *grown, columns);
        --extending;
        return;
      }
      do {
        const QueryResult got = SweepPlanRows(*old, *old_bound);
        if (got.groups != old_answer.groups) ++stale_answers;
      } while (extending.load() > 0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stale_answers.load(), 0);
  ExpectBitIdentical(old_answer, SweepPlanRows(*old, *old_bound));

  exec::PlanColumnStore fresh_columns;
  auto fresh = ScanPlan::Compile(*grown, fresh_columns);
  ASSERT_TRUE(fresh.ok());
  for (const Result<ScanPlan>& ext : extended) {
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    for (size_t i = 0; i < fresh->fact_dim_row.size(); ++i) {
      EXPECT_EQ(ext->fact_dim_row[i]->rows, fresh->fact_dim_row[i]->rows);
    }
    EXPECT_EQ(ext->weights->values, fresh->weights->values);
  }
  // Each column has one appending build (two join columns and the weights;
  // a thread that finds a racing twin's column live reuses it instead of
  // building).
  const exec::PlanColumnStore::Stats after = columns.GetStats();
  EXPECT_EQ(after.copies - before.copies, after.builds - before.builds - 3);
}

// Extending a plan with cells is an extend like any other — a hit, not a
// miss — and the extended plan keeps cells, so its next hit builds nothing.
TEST(PlanCacheTest, ExtendingACellPlanCountsAsAnExtend) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);
  PlanCache cache(8);
  StarJoinExecutor executor;

  auto bound = binder.Bind(CustTierSumQuery());
  ASSERT_TRUE(bound.ok());
  ASSERT_TRUE(cache.GetOrCompile(*bound).ok());
  auto with_cells = cache.GetOrCompile(*bound);
  ASSERT_TRUE(with_cells.ok());
  ASSERT_NE((*with_cells)->cells, nullptr);

  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE((*orders)
                  ->AppendRow({Value(int64_t{2}), Value(int64_t{3}),
                               Value(int64_t{4}), Value(40.0)})
                  .ok());
  auto grown = binder.Bind(CustTierSumQuery());
  ASSERT_TRUE(grown.ok());
  auto extended = cache.GetOrCompile(*grown);
  ASSERT_TRUE(extended.ok());
  ASSERT_NE((*extended)->cells, nullptr);
  auto again = cache.GetOrCompile(*grown);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), extended->get());

  PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.extends, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_EQ(stats.cell_builds, 1u);

  auto naive = exec::ExecuteNaive(*grown);
  ASSERT_TRUE(naive.ok());
  auto got = executor.Execute(*grown, PredicateOverrides(), **extended);
  ASSERT_TRUE(got.ok());
  ExpectBitIdentical(*naive, *got);
}

TEST(PlanCacheTest, PlanPathDoesNotChangePmNoiseSemantics) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);

  for (const auto& q : {ToyCountQuery(), ToyGroupedQuery()}) {
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok());

    // The mechanism's (cached-plan) answer must be bit-identical to manually
    // drawing the same noise and evaluating the noisy query with the oracle:
    // plan reuse is pure post-processing of an identical noisy query.
    core::PredicateMechanism pm;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Rng mech_rng(seed);
      auto via_pm = pm.Answer(*bound, 0.7, &mech_rng);
      ASSERT_TRUE(via_pm.ok()) << via_pm.status().ToString();

      Rng manual_rng(seed);
      auto overrides = pm.PerturbPredicates(*bound, 0.7, &manual_rng);
      ASSERT_TRUE(overrides.ok());
      auto via_naive = exec::ExecuteNaive(*bound, *overrides);
      ASSERT_TRUE(via_naive.ok());
      ExpectBitIdentical(*via_naive, *via_pm);
    }
  }
}

TEST(PlanCacheTest, DisabledCacheAnswersWithoutCaching) {
  storage::Catalog catalog = MakeToyCatalog();
  query::Binder binder(&catalog);

  // Capacity 0 = "no plan reuse": every Answer compiles a throwaway plan,
  // answers exactly like the oracle on the same noise draw, and the cache
  // never holds an entry.
  auto disabled = std::make_shared<PlanCache>(0);
  core::PredicateMechanism pm({}, {}, disabled);
  for (const auto& q : {ToyCountQuery(), ToyGroupedQuery()}) {
    auto bound = binder.Bind(q);
    ASSERT_TRUE(bound.ok());
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      auto r = pm.Answer(*bound, 0.5, &rng);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Rng manual_rng(seed);
      auto overrides = pm.PerturbPredicates(*bound, 0.5, &manual_rng);
      ASSERT_TRUE(overrides.ok());
      auto naive = exec::ExecuteNaive(*bound, *overrides);
      ASSERT_TRUE(naive.ok());
      ExpectBitIdentical(*naive, *r);
      EXPECT_EQ(disabled->size(), 0u);
    }
  }
  EXPECT_EQ(disabled->GetStats().hits, 0u);
  EXPECT_EQ(disabled->bytes(), 0u);
}

TEST(PlanCacheTest, ServiceSharesOnePlanCacheAcrossEngines) {
  storage::Catalog catalog = MakeToyCatalog();
  service::ServiceOptions opts;
  opts.num_engines = 4;
  service::QueryService svc(&catalog, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 100.0).ok());

  const char* sql =
      "SELECT count(*) FROM Orders, Cust, Prod "
      "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
      "AND Cust.region = 'N' AND Prod.cat = 'a'";
  // Distinct ε per call defeats the noisy-answer replay cache, so every call
  // actually executes — and all engines reuse the single compiled plan.
  for (int i = 0; i < 12; ++i) {
    auto r = svc.Answer(sql, 0.1 + 0.01 * i, "t");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.plan_cache.hits, 11u);
  EXPECT_GE(svc.plan_cache().size(), 1u);
}

}  // namespace
}  // namespace dpstarj
