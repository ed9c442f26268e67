// Tests for the Predicate Mechanism (Algorithms 1 & 3) and the DpStarJoin
// facade: budget splitting, GROUP BY support,
// convergence with growing ε, and budget accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.h"
#include "core/dp_star_join.h"
#include "core/predicate_mechanism.h"
#include "query/binder.h"
#include "test_catalog.h"

namespace dpstarj::core {
namespace {

using query::Binder;
using query::StarJoinQuery;
using testing_fixture::MakeToyCatalog;
using testing_fixture::ToyCountQuery;

class PmTest : public ::testing::Test {
 protected:
  PmTest() : catalog_(MakeToyCatalog()), binder_(&catalog_) {}
  storage::Catalog catalog_;
  Binder binder_;
  PredicateMechanism pm_;
};

TEST_F(PmTest, PerturbsEveryPredicate) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  Rng rng(1);
  auto overrides = pm_.PerturbPredicates(*bound, 1.0, &rng);
  ASSERT_TRUE(overrides.ok());
  ASSERT_EQ(overrides->size(), 2u);
  EXPECT_TRUE((*overrides)[0].has_value());
  EXPECT_TRUE((*overrides)[1].has_value());
}

TEST_F(PmTest, SkipsPredicateFreeDimensions) {
  StarJoinQuery q = ToyCountQuery();
  q.predicates.pop_back();  // drop the Prod predicate
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  Rng rng(2);
  auto overrides = pm_.PerturbPredicates(*bound, 1.0, &rng);
  ASSERT_TRUE(overrides.ok());
  EXPECT_TRUE((*overrides)[0].has_value());
  EXPECT_FALSE((*overrides)[1].has_value());
}

TEST_F(PmTest, RefusesPredicateFreeQuery) {
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  Rng rng(3);
  auto r = pm_.Answer(*bound, 1.0, &rng);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PmTest, BudgetSplitAcrossPredicates) {
  // With two predicates each gets ε/2: verify via noise magnitude. Use a big
  // domain so scale differences are measurable.
  // One-predicate query at ε vs two-predicate query at 2ε must perturb the
  // shared predicate with the same scale — exercised indirectly by checking
  // the answer distributions agree under the same seeds.
  StarJoinQuery one = ToyCountQuery();
  one.predicates.pop_back();
  auto bound_one = binder_.Bind(one);
  auto bound_two = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound_one.ok());
  ASSERT_TRUE(bound_two.ok());
  Rng rng_a(42), rng_b(42);
  auto o1 = pm_.PerturbPredicates(*bound_one, 0.5, &rng_a);
  auto o2 = pm_.PerturbPredicates(*bound_two, 1.0, &rng_b);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  // Same seed, same effective ε_i = 0.5 → identical perturbation of the
  // region predicate.
  EXPECT_EQ((*o1)[0]->at(0).lo_index, (*o2)[0]->at(0).lo_index);
}

TEST_F(PmTest, AnswerIsExactUnderHugeBudget) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  Rng rng(4);
  auto r = pm_.Answer(*bound, 1e9, &rng);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 2.0);  // the true answer
}

TEST_F(PmTest, GroupByPerturbsOnlyPredicates) {
  StarJoinQuery q = ToyCountQuery();
  q.aggregate = query::AggregateKind::kSum;
  q.measure_terms = {{"qty", 1.0}};
  q.group_by = {{"Cust", "region"}};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  Rng rng(5);
  auto r = pm_.Answer(*bound, 1e9, &rng);  // no effective noise
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->grouped);
  // Group labels are real data labels (only region N rows with cat a match).
  EXPECT_EQ(r->groups.count("N"), 1u);
}

TEST_F(PmTest, ErrorShrinksWithEpsilon) {
  auto bound = binder_.Bind(ToyCountQuery());
  ASSERT_TRUE(bound.ok());
  double truth = 2.0;
  auto mean_error = [&](double eps, uint64_t seed) {
    Rng rng(seed);
    std::vector<double> errs;
    for (int i = 0; i < 400; ++i) {
      auto est = pm_.Answer(*bound, eps, &rng);
      EXPECT_TRUE(est.ok());
      errs.push_back(RelativeErrorPercent(est->scalar, truth));
    }
    return Mean(errs);
  };
  double err_low = mean_error(0.05, 11);
  double err_high = mean_error(5.0, 11);
  EXPECT_LT(err_high, err_low);
}

TEST_F(PmTest, FacadeAnswerSqlAndBudget) {
  DpStarJoinOptions opts;
  opts.seed = 9;
  opts.total_budget = 1.0;
  DpStarJoin engine(&catalog_, opts);
  const std::string sql =
      "SELECT count(*) FROM Cust, Orders, Prod WHERE Orders.ck = Cust.ck"
      " AND Orders.pk = Prod.pk AND Cust.region = 'N' AND Prod.cat = 'a'";
  ASSERT_TRUE(engine.AnswerSql(sql, 0.6).ok());
  EXPECT_NEAR(engine.RemainingBudget().value(), 0.4, 1e-12);
  auto second = engine.AnswerSql(sql, 0.6);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kBudgetExhausted);
}

TEST_F(PmTest, FacadeTrueAnswer) {
  DpStarJoin engine(&catalog_);
  auto truth = engine.TrueAnswer(ToyCountQuery());
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(truth->scalar, 2.0);
  EXPECT_FALSE(engine.RemainingBudget().has_value());
}

TEST_F(PmTest, FacadeReproducibleUnderSeed) {
  DpStarJoinOptions opts;
  opts.seed = 1234;
  DpStarJoin a(&catalog_, opts), b(&catalog_, opts);
  auto ra = a.Answer(ToyCountQuery(), 0.3);
  auto rb = b.Answer(ToyCountQuery(), 0.3);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->scalar, rb->scalar);
}

}  // namespace
}  // namespace dpstarj::core
