// Tests for workload one-hot encoding, matrix↔query round trips, the paper's
// W1/W2 literals, and the Workload Decomposition mechanism (Algorithm 4).

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/dp_star_join.h"
#include "core/workload_mechanism.h"
#include "exec/scan_plan.h"
#include "query/binder.h"
#include "query/workload.h"
#include "ssb/workloads.h"
#include "test_catalog.h"

namespace dpstarj::core {
namespace {

using query::Binder;
using query::DimensionAttribute;
using query::StarJoinQuery;
using query::Workload;
using testing_fixture::CatDomain;
using testing_fixture::MakeToyCatalog;
using testing_fixture::RegionDomain;

std::vector<DimensionAttribute> ToyAttributes() {
  return {{"Cust", "region", RegionDomain()}, {"Prod", "cat", CatDomain()}};
}

Workload ToyWorkload() {
  Workload w;
  w.name = "toy";
  for (int r = 0; r < 3; ++r) {
    StarJoinQuery q;
    q.fact_table = "Orders";
    q.joined_tables = {"Cust", "Prod"};
    q.predicates.push_back(query::Predicate::PointIndex("Cust", "region", r));
    if (r == 0) {
      q.predicates.push_back(query::Predicate::RangeIndex("Prod", "cat", 0, 1));
    }
    w.queries.push_back(std::move(q));
  }
  return w;
}

TEST(WorkloadEncodingTest, OneHotMatrices) {
  auto matrices = query::BuildPredicateMatrices(ToyWorkload(), ToyAttributes());
  ASSERT_TRUE(matrices.ok()) << matrices.status().ToString();
  ASSERT_EQ(matrices->size(), 2u);
  const auto& region = (*matrices)[0];
  EXPECT_EQ(region.rows(), 3);
  EXPECT_EQ(region.cols(), 3);
  EXPECT_DOUBLE_EQ(region.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(region.At(0, 1), 0.0);
  const auto& cat = (*matrices)[1];
  // Query 0 selects cats {0,1}; queries 1,2 have no cat predicate → all ones.
  EXPECT_DOUBLE_EQ(cat.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(cat.At(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(cat.At(1, 3), 1.0);
}

TEST(WorkloadEncodingTest, UnknownAttributeRejected) {
  Workload w = ToyWorkload();
  w.queries[0].predicates.push_back(
      query::Predicate::PointIndex("Cust", "tier", 0));
  EXPECT_FALSE(query::BuildPredicateMatrices(w, ToyAttributes()).ok());
}

TEST(WorkloadEncodingTest, MatrixRoundTrip) {
  auto matrices = query::BuildPredicateMatrices(ToyWorkload(), ToyAttributes());
  ASSERT_TRUE(matrices.ok());
  auto back =
      query::WorkloadFromMatrices("rt", "Orders", ToyAttributes(), *matrices);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto again = query::BuildPredicateMatrices(*back, ToyAttributes());
  ASSERT_TRUE(again.ok());
  for (size_t a = 0; a < matrices->size(); ++a) {
    EXPECT_EQ((*matrices)[a], (*again)[a]) << "attribute " << a;
  }
}

TEST(WorkloadEncodingTest, NonIntervalRowRejected) {
  linalg::Matrix bad(1, 3);
  bad.At(0, 0) = 1.0;
  bad.At(0, 2) = 1.0;  // hole at 1
  auto r = query::WorkloadFromMatrices(
      "bad", "Orders", {{"Cust", "region", RegionDomain()}}, {bad});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotSupported);
}

TEST(PaperWorkloadsTest, LiteralShapes) {
  EXPECT_EQ(ssb::W1Matrix().rows(), 11);
  EXPECT_EQ(ssb::W1Matrix().cols(), 17);
  EXPECT_EQ(ssb::W2Matrix().rows(), 7);
  EXPECT_EQ(ssb::W2Matrix().cols(), 17);
}

TEST(PaperWorkloadsTest, W2DateBlockIsCumulative) {
  auto blocks = ssb::SplitWorkloadMatrix(ssb::W2Matrix());
  ASSERT_TRUE(blocks.ok());
  const auto& date = (*blocks)[0];
  for (int q = 0; q < date.rows(); ++q) {
    // Prefix structure: row q selects years [0, q].
    for (int c = 0; c < date.cols(); ++c) {
      EXPECT_DOUBLE_EQ(date.At(q, c), c <= q ? 1.0 : 0.0);
    }
  }
}

TEST(PaperWorkloadsTest, ConvertToQueries) {
  auto w1 = ssb::WorkloadW1();
  ASSERT_TRUE(w1.ok()) << w1.status().ToString();
  EXPECT_EQ(w1->size(), 11);
  auto w2 = ssb::WorkloadW2();
  ASSERT_TRUE(w2.ok());
  EXPECT_EQ(w2->size(), 7);
  // All queries share the fact table and are COUNTs.
  for (const auto& q : w1->queries) {
    EXPECT_EQ(q.fact_table, "Lineorder");
    EXPECT_EQ(q.aggregate, query::AggregateKind::kCount);
  }
}

// WD against both layouts of W: the base plan's fact rows, and its cells.
class WdTest : public ::testing::TestWithParam<bool> {
 protected:
  WdTest() : catalog_(MakeToyCatalog()), binder_(&catalog_) {
    auto base = BindWorkloadBase(binder_, ToyWorkload(), ToyAttributes());
    DPSTARJ_CHECK(base.ok(), "fixture base");
    base_ = std::move(*base);
    exec::PlanColumnStore columns;
    auto plan = exec::ScanPlan::Compile(base_, columns);
    DPSTARJ_CHECK(plan.ok(), "fixture plan");
    if (GetParam()) plan = exec::ScanPlan::WithCells(*plan, base_, 1 << 20);
    DPSTARJ_CHECK(plan.ok() && (plan->cells != nullptr) == GetParam(),
                  "fixture layout");
    plan_ = std::make_unique<exec::ScanPlan>(std::move(*plan));
  }
  storage::Catalog catalog_;
  Binder binder_;
  query::BoundQuery base_;
  std::unique_ptr<exec::ScanPlan> plan_;
};

TEST_P(WdTest, TrueAnswers) {
  auto truth = TrueWorkloadAnswers(base_, *plan_, ToyWorkload(), ToyAttributes());
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(truth->size(), 3u);
  // Query 0: region N (=idx 0) × cat {a,b}: rows (1,1),(1,2),(2,1) → 3.
  EXPECT_DOUBLE_EQ((*truth)[0], 3.0);
  // Query 1: region S, any cat → 4 rows.
  EXPECT_DOUBLE_EQ((*truth)[1], 4.0);
  EXPECT_DOUBLE_EQ((*truth)[2], 4.0);
}

TEST_P(WdTest, HugeBudgetRecoversTruth) {
  Rng rng(3);
  auto answers = AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                                 ToyAttributes(), 1e9, &rng);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  auto truth = TrueWorkloadAnswers(base_, *plan_, ToyWorkload(), ToyAttributes());
  ASSERT_TRUE(truth.ok());
  for (size_t i = 0; i < truth->size(); ++i) {
    EXPECT_NEAR((*answers)[i], (*truth)[i], 1e-6) << "query " << i;
  }
}

TEST_P(WdTest, PerQueryPathRecoversTruthUnderHugeBudget) {
  Rng rng(4);
  auto answers =
      AnswerWorkloadPerQuery(base_, *plan_, ToyWorkload(), ToyAttributes(), 1e9, &rng);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_DOUBLE_EQ((*answers)[0], 3.0);
  EXPECT_DOUBLE_EQ((*answers)[1], 4.0);
}

TEST_P(WdTest, StrategyDiagnostics) {
  Rng rng(5);
  WorkloadDecompositionInfo info;
  WorkloadMechanismOptions opts;
  auto answers = AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                                 ToyAttributes(), 1.0, &rng, opts,
                                                 &info);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(info.strategies.size(), 2u);
  // The cat block has a width-2 interval → hierarchical; region is points…
  // but absent predicates (full-domain rows) count as ranges, so both may be
  // hierarchical. Just check the labels are well-formed.
  for (const auto& s : info.strategies) {
    EXPECT_TRUE(s.find("identity") == 0 || s.find("hierarchical") == 0) << s;
  }
}

TEST_P(WdTest, ForcedStrategies) {
  Rng rng(6);
  WorkloadMechanismOptions identity;
  identity.strategy = WorkloadStrategyKind::kIdentity;
  WorkloadDecompositionInfo info;
  ASSERT_TRUE(AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                              ToyAttributes(), 1e9, &rng, identity,
                                              &info)
                  .ok());
  EXPECT_EQ(info.strategies[0], "identity(3)");
  WorkloadMechanismOptions hier;
  hier.strategy = WorkloadStrategyKind::kHierarchical;
  ASSERT_TRUE(AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                              ToyAttributes(), 1e9, &rng, hier,
                                              &info)
                  .ok());
  EXPECT_EQ(info.strategies[0], "hierarchical(3)");
}

TEST_P(WdTest, Validation) {
  Rng rng(7);
  EXPECT_FALSE(AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                               ToyAttributes(), 0.0, &rng)
                   .ok());
  EXPECT_FALSE(AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                               ToyAttributes(), 1.0, nullptr)
                   .ok());
  // Axis mismatch.
  EXPECT_FALSE(
      AnswerWorkloadWithDecomposition(base_, *plan_, ToyWorkload(),
                                      {{"Cust", "region", RegionDomain()}}, 1.0,
                                      &rng)
          .ok());
}

TEST_P(WdTest, FacadeWorkloadPath) {
  DpStarJoinOptions opts;
  opts.seed = 11;
  DpStarJoin engine(&catalog_, opts);
  auto truth = engine.TrueWorkload(ToyWorkload(), ToyAttributes());
  ASSERT_TRUE(truth.ok());
  auto wd = engine.AnswerWorkload(ToyWorkload(), ToyAttributes(), 1e9, true);
  ASSERT_TRUE(wd.ok()) << wd.status().ToString();
  for (size_t i = 0; i < truth->size(); ++i) {
    EXPECT_NEAR((*wd)[i], (*truth)[i], 1e-6);
  }
  auto pm = engine.AnswerWorkload(ToyWorkload(), ToyAttributes(), 1e9, false);
  ASSERT_TRUE(pm.ok());
}

// W stays in the engine's plan cache across calls and is extended after an
// ingest. Each round's truths must equal a fresh engine's on the grown
// catalog. 12 toy rows decline the 12-cell index; 24 rows build cells at
// the second lookup; the third round extends the plan with its cells.
TEST(WdFacadeTest, TrueWorkloadFollowsIngest) {
  storage::Catalog catalog = MakeToyCatalog();
  DpStarJoinOptions opts;
  opts.plan_cache = std::make_shared<exec::PlanCache>();
  DpStarJoin engine(&catalog, opts);
  auto orders = catalog.GetTable("Orders");
  ASSERT_TRUE(orders.ok());
  std::vector<double> previous;
  for (int round = 0; round < 3; ++round) {
    auto truth = engine.TrueWorkload(ToyWorkload(), ToyAttributes());
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    auto expected =
        DpStarJoin(&catalog).TrueWorkload(ToyWorkload(), ToyAttributes());
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*truth, *expected) << "round " << round;
    EXPECT_NE(*truth, previous) << "round " << round;
    previous = *truth;
    // 12 rows over every customer and every product: each query grows.
    for (int64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE((*orders)
                      ->AppendRow({storage::Value(1 + i % 6),
                                   storage::Value(1 + i % 4),
                                   storage::Value(int64_t{1}),
                                   storage::Value(10.0)})
                      .ok());
    }
  }
  const exec::PlanCache::Stats stats = opts.plan_cache->GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.extends, 2u);
  EXPECT_EQ(stats.cell_declines, 1u);
  EXPECT_EQ(stats.cell_builds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, WdTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Cells" : "Rows";
                         });

}  // namespace
}  // namespace dpstarj::core
