// Tests for the contribution index (baseline sensitivities) and the
// contraction of W over a plan's rows and cells, cross-checked against the
// executor and the naive oracle.

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/contribution_index.h"
#include "exec/naive_executor.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "test_catalog.h"

namespace dpstarj::exec {
namespace {

using query::Binder;
using query::Predicate;
using query::StarJoinQuery;
using storage::Value;
using testing_fixture::MakeToyCatalog;
using testing_fixture::ToyCountQuery;

class ContributionTest : public ::testing::Test {
 protected:
  ContributionTest() : catalog_(MakeToyCatalog()), binder_(&catalog_) {}
  storage::Catalog catalog_;
  Binder binder_;
};

TEST_F(ContributionTest, FactPrivateEachRowIsAnIndividual) {
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  q.predicates.push_back(Predicate::Point("Cust", "region", Value("N")));
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto idx = BuildContributionIndex(*bound, {"Orders"});
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  // 4 matching fact rows, each contributing 1.
  EXPECT_EQ(idx->contributions.size(), 4u);
  EXPECT_DOUBLE_EQ(idx->max_contribution, 1.0);
  EXPECT_DOUBLE_EQ(idx->total, 4.0);
}

TEST_F(ContributionTest, DimensionPrivateGroupsByKey) {
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  // No predicate: every customer contributes its fan-out (2 each).
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto idx = BuildContributionIndex(*bound, {"Cust"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->contributions.size(), 6u);
  EXPECT_DOUBLE_EQ(idx->max_contribution, 2.0);
  EXPECT_DOUBLE_EQ(idx->total, 12.0);
}

TEST_F(ContributionTest, PredicateRestrictsContributions) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto idx = BuildContributionIndex(*bound, {"Cust"});
  ASSERT_TRUE(idx.ok());
  // Matching rows: (1,1), (2,1) → customers 1 and 2, one row each.
  EXPECT_EQ(idx->contributions.size(), 2u);
  EXPECT_DOUBLE_EQ(idx->max_contribution, 1.0);
  EXPECT_DOUBLE_EQ(idx->total, 2.0);
}

TEST_F(ContributionTest, MultiplePrivateDimensionsGroupByConjunction) {
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust", "Prod"};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto idx = BuildContributionIndex(*bound, {"Cust", "Prod"});
  ASSERT_TRUE(idx.ok());
  // Every (ck,pk) pair in the fixture is distinct → 12 individuals of 1.
  EXPECT_EQ(idx->contributions.size(), 12u);
  EXPECT_DOUBLE_EQ(idx->max_contribution, 1.0);
}

TEST_F(ContributionTest, SumUsesWeights) {
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto idx = BuildContributionIndex(*bound, {"Cust"});
  ASSERT_TRUE(idx.ok());
  // ck3 owns qty 2+5=7, the maximum.
  EXPECT_DOUBLE_EQ(idx->max_contribution, 7.0);
  EXPECT_DOUBLE_EQ(idx->total, 27.0);
}

TEST_F(ContributionTest, TruncatedTotal) {
  ContributionIndex idx;
  idx.contributions = {5.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(idx.TruncatedTotal(2.0), 5.0);   // 2+2+1
  EXPECT_DOUBLE_EQ(idx.TruncatedTotal(10.0), 8.0);  // untruncated
  EXPECT_DOUBLE_EQ(idx.TruncatedTotal(0.0), 0.0);
}

TEST_F(ContributionTest, Errors) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(BuildContributionIndex(*bound, {}).ok());
  EXPECT_FALSE(BuildContributionIndex(*bound, {"Nope"}).ok());
}

// The contraction of W (ContractPlan), over both layouts of one plan: its
// fact rows, and its cells. The toy query's plan has one ordinal table per
// dimension: region (3 values) and cat (4 values).
class ContractionTest : public ::testing::TestWithParam<bool> {
 protected:
  ContractionTest() : catalog_(MakeToyCatalog()), binder_(&catalog_) {}

  // The toy query, COUNT or SUM(qty), bound.
  query::BoundQuery Toy(bool as_sum) {
    StarJoinQuery q = ToyCountQuery();
    if (as_sum) {
      q.aggregate = query::AggregateKind::kSum;
      q.measure_terms = {{"qty", 1.0}};
    }
    auto bound = binder_.Bind(q);
    DPSTARJ_CHECK(bound.ok(), "toy bind");
    return std::move(*bound);
  }

  storage::Catalog catalog_;
  Binder binder_;
};

// A plan of `q` in the layout under test: its fact rows, or its cells.
ScanPlan LayoutOf(const query::BoundQuery& q, bool cells) {
  PlanColumnStore columns;
  auto plan = ScanPlan::Compile(q, columns);
  DPSTARJ_CHECK(plan.ok(), "compile");
  if (!cells) return std::move(*plan);
  auto with = ScanPlan::WithCells(*plan, q, 1 << 20);
  DPSTARJ_CHECK(with.ok() && with->cells != nullptr, "cells");
  return std::move(*with);
}

const std::vector<ContractionAxis> kToyAxes = {{0, 0}, {1, 0}};

// The toy query with its region and cat predicates replaced by intervals.
PredicateOverrides Intervals(const query::BoundQuery& q, int64_t rlo,
                             int64_t rhi, int64_t clo, int64_t chi) {
  PredicateOverrides overrides(q.dims.size());
  const int64_t bounds[2][2] = {{rlo, rhi}, {clo, chi}};
  for (size_t i = 0; i < 2; ++i) {
    query::BoundPredicate p = q.dims[i].predicates[0];
    p.kind = query::PredicateKind::kRange;
    p.lo_index = bounds[i][0];
    p.hi_index = bounds[i][1];
    overrides[i] = std::vector<query::BoundPredicate>{p};
  }
  return overrides;
}

std::vector<double> Indicator(size_t size, int64_t lo, int64_t hi) {
  std::vector<double> w(size, 0.0);
  for (int64_t k = lo; k <= hi; ++k) w[static_cast<size_t>(k)] = 1.0;
  return w;
}

TEST_P(ContractionTest, OneHotWeightsMatchNaivePointQueries) {
  for (bool as_sum : {false, true}) {
    const query::BoundQuery q = Toy(as_sum);
    const ScanPlan plan = LayoutOf(q, GetParam());
    double total = 0.0;
    for (int64_t r = 0; r < 3; ++r) {
      for (int64_t c = 0; c < 4; ++c) {
        auto got = ContractPlan(plan, kToyAxes,
                                {Indicator(3, r, r), Indicator(4, c, c)});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        auto naive = ExecuteNaive(q, Intervals(q, r, r, c, c));
        ASSERT_TRUE(naive.ok());
        EXPECT_EQ(*got, naive->scalar) << "region " << r << " cat " << c;
        total += *got;
      }
    }
    EXPECT_EQ(total, as_sum ? 27.0 : 12.0);
  }
}

TEST_P(ContractionTest, AllOnesWeightsMatchExecutor) {
  for (bool as_sum : {false, true}) {
    const query::BoundQuery q = Toy(as_sum);
    auto got = ContractPlan(LayoutOf(q, GetParam()), kToyAxes,
                            {std::vector<double>(3, 1.0),
                             std::vector<double>(4, 1.0)});
    ASSERT_TRUE(got.ok());
    auto executed = StarJoinExecutor().Execute(q, Intervals(q, 0, 2, 0, 3));
    ASSERT_TRUE(executed.ok());
    EXPECT_EQ(*got, executed->scalar);
    EXPECT_EQ(*got, as_sum ? 27.0 : 12.0);  // 12 orders, Σqty = 27
  }
}

TEST_P(ContractionTest, FractionalWeightsScaleLinearly) {
  const ScanPlan plan = LayoutOf(Toy(false), GetParam());
  // Region N × cat a holds 2 rows.
  EXPECT_EQ(*ContractPlan(plan, kToyAxes, {{1, 0, 0}, {1, 0, 0, 0}}), 2.0);
  EXPECT_EQ(*ContractPlan(plan, kToyAxes, {{0.5, 0, 0}, {1, 0, 0, 0}}), 1.0);
  EXPECT_EQ(*ContractPlan(plan, kToyAxes, {{0.5, 0, 0}, {0.25, 0, 0, 0}}), 0.25);
  // Linear in each axis's weights: doubling one vector doubles the answer.
  const std::vector<double> region = {0.3, -1.5, 2.0};
  const std::vector<double> cat = {0.7, 0.1, -0.4, 1.0};
  std::vector<double> doubled = region;
  for (double& w : doubled) w *= 2.0;
  EXPECT_DOUBLE_EQ(*ContractPlan(plan, kToyAxes, {doubled, cat}),
                   2.0 * *ContractPlan(plan, kToyAxes, {region, cat}));
}

TEST_P(ContractionTest, IntervalIndicatorsMatchNaive) {
  const query::BoundQuery q = Toy(false);
  const ScanPlan plan = LayoutOf(q, GetParam());
  Rng rng(131);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t rlo = rng.UniformInt(0, 2), rhi = rng.UniformInt(rlo, 2);
    int64_t clo = rng.UniformInt(0, 3), chi = rng.UniformInt(clo, 3);
    auto got = ContractPlan(plan, kToyAxes,
                            {Indicator(3, rlo, rhi), Indicator(4, clo, chi)});
    ASSERT_TRUE(got.ok());
    auto naive = ExecuteNaive(q, Intervals(q, rlo, rhi, clo, chi));
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(*got, naive->scalar) << "trial " << trial;
  }
}

TEST_P(ContractionTest, OutOfDomainAndDanglingRowsCountForNothing) {
  // D(k pk, v ∈ [0,2]) with one out-of-domain value; F references a missing
  // key too. Neither row may count.
  storage::Catalog catalog;
  storage::Schema dim_schema(
      {storage::Field("k", storage::ValueType::kInt64),
       storage::Field("v", storage::ValueType::kInt64,
                      storage::AttributeDomain::IntRange(0, 2))});
  auto dim = *storage::Table::Create("D", dim_schema, "k");
  ASSERT_TRUE(dim->AppendRow({Value(int64_t{1}), Value(int64_t{0})}).ok());
  ASSERT_TRUE(dim->AppendRow({Value(int64_t{2}), Value(int64_t{5})}).ok());  // out of domain
  ASSERT_TRUE(dim->AppendRow({Value(int64_t{3}), Value(int64_t{2})}).ok());

  storage::Schema fact_schema({storage::Field("fk", storage::ValueType::kInt64),
                               storage::Field("m", storage::ValueType::kDouble)});
  auto fact = *storage::Table::Create("F", fact_schema);
  for (int64_t fk : {1, 2, 3, 99}) {  // 99 = dangling foreign key
    ASSERT_TRUE(fact->AppendRow({Value(fk), Value(1.0)}).ok());
  }
  ASSERT_TRUE(catalog.AddTable(dim).ok());
  ASSERT_TRUE(catalog.AddTable(fact).ok());
  ASSERT_TRUE(catalog.AddForeignKey({"F", "fk", "D", "k"}).ok());

  StarJoinQuery q;
  q.fact_table = "F";
  q.joined_tables = {"D"};
  q.predicates.push_back(Predicate::RangeIndex("D", "v", 0, 2));
  Binder binder(&catalog);
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto got = ContractPlan(LayoutOf(*bound, GetParam()), {{0, 0}},
                          {std::vector<double>(3, 1.0)});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 2.0);  // fk=2 (bad value) and fk=99 count for nothing
}

TEST_P(ContractionTest, ReportsArityAxisAndSizeErrors) {
  const ScanPlan plan = LayoutOf(Toy(false), GetParam());
  EXPECT_FALSE(ContractPlan(plan, kToyAxes, {{1, 0, 0}}).ok());  // arity
  EXPECT_FALSE(ContractPlan(plan, {{2, 0}}, {{1, 0, 0}}).ok());  // no dim 2
  EXPECT_FALSE(ContractPlan(plan, {{0, 1}}, {{1, 0, 0}}).ok());  // no table 1
  EXPECT_FALSE(ContractPlan(plan, kToyAxes, {{1, 0}, {1, 0, 0, 0}}).ok());
}

INSTANTIATE_TEST_SUITE_P(Layouts, ContractionTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Cells" : "Rows";
                         });

}  // namespace
}  // namespace dpstarj::exec
