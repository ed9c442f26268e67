// Tests for the contribution index (baseline sensitivities) and the data
// cube, cross-checked against the executor and the naive oracle.

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/contribution_index.h"
#include "exec/data_cube.h"
#include "exec/naive_executor.h"
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

class CubeTest : public ::testing::Test {
 protected:
  CubeTest() : catalog_(MakeToyCatalog()), binder_(&catalog_) {}
  storage::Catalog catalog_;
  Binder binder_;
};

TEST_F(CubeTest, TotalsMatchExecutor) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->axes().size(), 2u);
  EXPECT_EQ(cube->num_cells(), 12);  // 3 regions × 4 cats
  EXPECT_EQ(cube->dropped_rows(), 0);
  EXPECT_DOUBLE_EQ(cube->total(), 12.0);

  // Evaluating the query's own predicates must equal the executor.
  auto preds = bound->Predicates();
  auto cube_answer = cube->Evaluate(preds);
  ASSERT_TRUE(cube_answer.ok());
  StarJoinExecutor executor;
  auto exec_answer = executor.Execute(*bound);
  ASSERT_TRUE(exec_answer.ok());
  EXPECT_DOUBLE_EQ(*cube_answer, exec_answer->scalar);
}

TEST_F(CubeTest, CellValues) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  // Region N (idx 0) × cat a (idx 0): rows (1,1),(2,1) → 2.
  EXPECT_DOUBLE_EQ(cube->CellAt({0, 0}), 2.0);
  // Region E (idx 2) × cat b (idx 1): rows (5,2),(6,2) → 2.
  EXPECT_DOUBLE_EQ(cube->CellAt({2, 1}), 2.0);
}

TEST_F(CubeTest, EvaluateWeightedMatchesIndicator) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  // Indicator weights equal to the predicates → same answer as Evaluate.
  std::vector<std::vector<double>> weights = {{1, 0, 0}, {1, 0, 0, 0}};
  auto w = cube->EvaluateWeighted(weights);
  ASSERT_TRUE(w.ok());
  EXPECT_DOUBLE_EQ(*w, 2.0);
  // Fractional weights scale linearly.
  weights[0] = {0.5, 0, 0};
  EXPECT_DOUBLE_EQ(*cube->EvaluateWeighted(weights), 1.0);
}

TEST_F(CubeTest, Marginals) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  auto region_marginal = cube->Marginal(0);
  ASSERT_TRUE(region_marginal.ok());
  EXPECT_EQ(region_marginal->size(), 3u);
  EXPECT_DOUBLE_EQ((*region_marginal)[0], 4.0);  // region N rows
  EXPECT_DOUBLE_EQ((*region_marginal)[1], 4.0);
  EXPECT_DOUBLE_EQ((*region_marginal)[2], 4.0);
  EXPECT_FALSE(cube->Marginal(5).ok());
}

TEST_F(CubeTest, SumCube) {
  StarJoinQuery q = ToyCountQuery();
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  EXPECT_DOUBLE_EQ(cube->total(), 27.0);
  // N × a: qty 2 (row 1,1) + 3 (row 2,1) = 5.
  EXPECT_DOUBLE_EQ(cube->CellAt({0, 0}), 5.0);
}

TEST_F(CubeTest, ErrorsAndGuards) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(DataCube::Build(*bound, {}).ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  EXPECT_FALSE(cube->Evaluate({}).ok());  // arity
  EXPECT_FALSE(cube->EvaluateWeighted({{1, 0, 0}}).ok());
  EXPECT_FALSE(cube->EvaluateWeighted({{1, 0}, {1, 0, 0, 0}}).ok());
}

// Property: cube evaluation ≡ executor for random predicates.
class CubeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CubeEquivalence, MatchesExecutor) {
  storage::Catalog catalog = MakeToyCatalog();
  Binder binder(&catalog);
  Rng rng(static_cast<uint64_t>(GetParam()) * 131 + 3);

  int64_t rlo = rng.UniformInt(0, 2), rhi = rng.UniformInt(rlo, 2);
  int64_t clo = rng.UniformInt(0, 3), chi = rng.UniformInt(clo, 3);
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust", "Prod"};
  q.predicates.push_back(Predicate::RangeIndex("Cust", "region", rlo, rhi));
  q.predicates.push_back(Predicate::RangeIndex("Prod", "cat", clo, chi));
  auto bound = binder.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  StarJoinExecutor executor;
  auto exec_r = executor.Execute(*bound);
  auto cube_r = cube->Evaluate(bound->Predicates());
  ASSERT_TRUE(exec_r.ok());
  ASSERT_TRUE(cube_r.ok());
  EXPECT_DOUBLE_EQ(exec_r->scalar, *cube_r);
}

INSTANTIATE_TEST_SUITE_P(RandomRanges, CubeEquivalence, ::testing::Range(0, 20));

// Every cell of `cube` against the oracle: one point query per cell, each
// axis predicate pinned to the cell's ordinal through overrides
// (BuildFromQueryPredicates lays one axis per predicate, in dims-then-
// predicate order), and the total as the sum of the cells.
void ExpectCubeMatchesNaive(const DataCube& cube, const query::BoundQuery& q) {
  std::vector<int64_t> sizes;
  for (const auto& axis : cube.axes()) sizes.push_back(axis.domain.size());
  std::vector<int64_t> idx(sizes.size(), 0);
  double cell_sum = 0.0;
  for (int64_t cell = 0; cell < cube.num_cells(); ++cell) {
    PredicateOverrides overrides(q.dims.size());
    size_t axis = 0;
    for (size_t i = 0; i < q.dims.size(); ++i) {
      if (q.dims[i].predicates.empty()) continue;
      std::vector<query::BoundPredicate> point = q.dims[i].predicates;
      for (auto& p : point) {
        p.kind = query::PredicateKind::kPoint;
        p.lo_index = p.hi_index = idx[axis++];
      }
      overrides[i] = std::move(point);
    }
    auto naive = ExecuteNaive(q, overrides);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_EQ(naive->scalar, cube.CellAt(idx)) << "cell " << cell;
    cell_sum += cube.CellAt(idx);
    for (int a = static_cast<int>(sizes.size()) - 1; a >= 0; --a) {
      if (++idx[static_cast<size_t>(a)] < sizes[static_cast<size_t>(a)]) break;
      idx[static_cast<size_t>(a)] = 0;
    }
  }
  EXPECT_EQ(cube.total(), cell_sum);
}

TEST_F(CubeTest, BuildMatchesNaivePointQueriesAtEveryThreadCount) {
  for (bool as_sum : {false, true}) {
    StarJoinQuery q = ToyCountQuery();
    if (as_sum) {
      q.aggregate = query::AggregateKind::kSum;
      q.measure_terms = {{"qty", 1.0}};
    }
    auto bound = binder_.Bind(q);
    ASSERT_TRUE(bound.ok());

    for (int threads : {1, 2, 4}) {
      CubeOptions options;
      options.threads = threads;
      options.morsel_size = 5;  // force several morsels on the 12-row fact
      auto got = DataCube::BuildFromQueryPredicates(*bound, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectCubeMatchesNaive(*got, *bound);
      // Every fixture row joins with in-domain values: 12 orders, Σqty = 27.
      EXPECT_EQ(got->dropped_rows(), 0);
      EXPECT_EQ(got->total(), as_sum ? 27.0 : 12.0);
    }
  }
}

TEST_F(CubeTest, DroppedRowAccountingMatchesHandCounts) {
  // D(k pk, v ∈ [0,2]) with one out-of-domain value; F references a missing
  // key too — both kinds of rows must be dropped at every thread count.
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

  for (int threads : {1, 2, 4}) {
    CubeOptions options;
    options.threads = threads;
    options.morsel_size = 2;
    auto got = DataCube::BuildFromQueryPredicates(*bound, options);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->dropped_rows(), 2);  // fk=2 (bad value) and fk=99
    EXPECT_EQ(got->total(), 2.0);
    ExpectCubeMatchesNaive(*got, *bound);
  }
}

TEST_F(CubeTest, EvaluateBoxSweepMatchesMaskReference) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  auto cube = DataCube::BuildFromQueryPredicates(*bound);
  ASSERT_TRUE(cube.ok());
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    query::BoundPredicate p0 = bound->dims[0].predicates[0];
    query::BoundPredicate p1 = bound->dims[1].predicates[0];
    p0.lo_index = rng.UniformInt(0, 2);
    p0.hi_index = rng.UniformInt(p0.lo_index, 2);
    p1.lo_index = rng.UniformInt(0, 3);
    p1.hi_index = rng.UniformInt(p1.lo_index, 3);
    std::vector<const query::BoundPredicate*> preds = {&p0, &p1};
    // Mask reference: walk every cell, apply Matches per axis.
    double expected = 0.0;
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 4; ++j) {
        if (p0.Matches(i) && p1.Matches(j)) expected += cube->CellAt({i, j});
      }
    }
    auto got = cube->Evaluate(preds);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(expected, *got) << "trial " << trial;
  }
}

}  // namespace
}  // namespace dpstarj::exec
