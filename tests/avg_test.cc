// Tests for the AVG aggregate (§3.1's query template lists COUNT/AVG/SUM).
// Under PM, AVG is post-processing of one noisy-predicate draw: the same
// noisy query yields both SUM and COUNT.

#include <gtest/gtest.h>

#include "core/dp_star_join.h"
#include "core/workload_mechanism.h"
#include "exec/contribution_index.h"
#include "exec/naive_executor.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "query/parser.h"
#include "test_catalog.h"

namespace dpstarj {
namespace {

using query::AggregateKind;
using query::Binder;
using query::StarJoinQuery;
using testing_fixture::MakeToyCatalog;

class AvgTest : public ::testing::Test {
 protected:
  AvgTest() : catalog_(MakeToyCatalog()), binder_(&catalog_) {}

  StarJoinQuery AvgQtyByRegion(const char* region) {
    StarJoinQuery q;
    q.fact_table = "Orders";
    q.joined_tables = {"Cust"};
    q.aggregate = AggregateKind::kAvg;
    q.measure_terms = {{"qty", 1.0}};
    q.predicates.push_back(
        query::Predicate::Point("Cust", "region", storage::Value(region)));
    return q;
  }

  storage::Catalog catalog_;
  Binder binder_;
  exec::StarJoinExecutor executor_;
};

TEST_F(AvgTest, ScalarAvg) {
  auto bound = binder_.Bind(AvgQtyByRegion("E"));
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto r = executor_.Execute(*bound);
  ASSERT_TRUE(r.ok());
  // Region E rows: qty 4,3,2,1 → avg 2.5.
  EXPECT_DOUBLE_EQ(r->scalar, 2.5);
}

TEST_F(AvgTest, EmptySelectionYieldsZero) {
  StarJoinQuery q = AvgQtyByRegion("N");
  // Restrict to an impossible conjunction via a second attribute.
  q.predicates.push_back(
      query::Predicate::Point("Cust", "tier", storage::Value(int64_t{4})));
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto r = executor_.Execute(*bound);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 0.0);  // no N-region tier-4 customers
}

TEST_F(AvgTest, GroupedAvg) {
  StarJoinQuery q;
  q.fact_table = "Orders";
  q.joined_tables = {"Cust"};
  q.aggregate = AggregateKind::kAvg;
  q.measure_terms = {{"qty", 1.0}};
  q.group_by = {{"Cust", "region"}};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto r = executor_.Execute(*bound);
  ASSERT_TRUE(r.ok());
  // N: (2+1+3+1)/4 = 1.75; S: (2+5+1+2)/4 = 2.5; E: (4+3+2+1)/4 = 2.5.
  EXPECT_DOUBLE_EQ(r->groups.at("N"), 1.75);
  EXPECT_DOUBLE_EQ(r->groups.at("S"), 2.5);
  EXPECT_DOUBLE_EQ(r->groups.at("E"), 2.5);
}

TEST_F(AvgTest, NaiveExecutorAgrees) {
  auto bound = binder_.Bind(AvgQtyByRegion("S"));
  ASSERT_TRUE(bound.ok());
  auto fast = executor_.Execute(*bound);
  auto slow = exec::ExecuteNaive(*bound);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_DOUBLE_EQ(fast->scalar, slow->scalar);
}

TEST_F(AvgTest, ParserAcceptsAvg) {
  auto parsed = query::ParseStarJoinSql(
      "SELECT avg(Orders.qty) FROM Cust, Orders WHERE Orders.ck = Cust.ck"
      " AND Cust.region = 'E'");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->aggregate, AggregateKind::kAvg);
  auto q = binder_.Resolve(*parsed);
  ASSERT_TRUE(q.ok());
  auto bound = binder_.Bind(*q);
  ASSERT_TRUE(bound.ok());
  auto r = executor_.Execute(*bound);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 2.5);
}

TEST_F(AvgTest, BinderRequiresMeasure) {
  StarJoinQuery q = AvgQtyByRegion("E");
  q.measure_terms.clear();
  EXPECT_FALSE(binder_.Bind(q).ok());
}

TEST_F(AvgTest, WorkloadBaseAndContributionsRefuseAvg) {
  auto bound = binder_.Bind(AvgQtyByRegion("E"));
  ASSERT_TRUE(bound.ok());
  query::Workload workload;
  workload.queries = {AvgQtyByRegion("E")};
  const std::vector<query::DimensionAttribute> attributes = {
      {"Cust", "region", testing_fixture::RegionDomain()}};
  auto base = core::BindWorkloadBase(binder_, workload, attributes);
  ASSERT_FALSE(base.ok());
  EXPECT_EQ(base.status().code(), StatusCode::kNotSupported);
  // Bound directly, the AVG query has the attribute's predicate and its plan
  // the ordinal table, so only the aggregate keeps W's readers from it.
  exec::PlanColumnStore columns;
  auto plan = exec::ScanPlan::Compile(*bound, columns);
  ASSERT_TRUE(plan.ok());
  auto truth = core::TrueWorkloadAnswers(*bound, *plan, workload, attributes);
  ASSERT_FALSE(truth.ok());
  EXPECT_EQ(truth.status().code(), StatusCode::kNotSupported);
  auto idx = exec::BuildContributionIndex(*bound, {"Cust"});
  ASSERT_FALSE(idx.ok());
  EXPECT_EQ(idx.status().code(), StatusCode::kNotSupported);
}

TEST_F(AvgTest, DpAnswerViaPredicateMechanism) {
  core::DpStarJoinOptions opts;
  opts.seed = 5;
  core::DpStarJoin engine(&catalog_, opts);
  StarJoinQuery q = AvgQtyByRegion("E");
  auto truth = engine.TrueAnswer(q);
  ASSERT_TRUE(truth.ok());
  EXPECT_DOUBLE_EQ(truth->scalar, 2.5);
  // Huge budget → the noisy predicate equals the true one → exact AVG.
  auto exact = engine.Answer(q, 1e9);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_DOUBLE_EQ(exact->scalar, 2.5);
  // Small budget → still a well-formed average of *some* region.
  auto noisy = engine.Answer(q, 0.1);
  ASSERT_TRUE(noisy.ok());
  EXPECT_GE(noisy->scalar, 0.0);
  EXPECT_LE(noisy->scalar, 5.0);  // qty ∈ [1,5] bounds any region average
}

TEST_F(AvgTest, AvgWithLinearExpression) {
  StarJoinQuery q = AvgQtyByRegion("E");
  // price = 10·qty, so avg(price - 10·qty + qty) = avg(qty).
  q.measure_terms = {{"price", 1.0}, {"qty", -9.0}};
  auto bound = binder_.Bind(q);
  ASSERT_TRUE(bound.ok());
  auto r = executor_.Execute(*bound);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->scalar, 2.5);
}

}  // namespace
}  // namespace dpstarj
