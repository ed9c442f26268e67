// Tests for PredicateMechanism::AnswerBatch and the layers above it: a batch
// answers every entry bit-identically to sequential Answer calls on an
// identically seeded Rng — over the paper's SSB COUNT, SUM, AVG and GROUP BY
// queries and numbered-code GROUP BY keys on two more fact tables, in batches
// that mix entries answered from their plan's cells with entries swept over
// the fact rows, at 1 and 4 scan threads — its receipts count what ran, a
// failing entry fails alone, and the service's SubmitWorkload handles cache
// skips, partial failure and budget refunds.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/predicate_mechanism.h"
#include "exec/plan_cache.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "service/query_service.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "test_catalog.h"

namespace dpstarj {
namespace {

using exec::QueryResult;

void ExpectBitIdentical(const QueryResult& expected, const QueryResult& got,
                        const std::string& what) {
  EXPECT_EQ(expected.grouped, got.grouped) << what;
  EXPECT_EQ(expected.scalar, got.scalar) << what;
  ASSERT_EQ(expected.groups.size(), got.groups.size()) << what;
  auto it = got.groups.begin();
  for (const auto& [label, value] : expected.groups) {
    EXPECT_EQ(label, it->first) << what;
    EXPECT_EQ(value, it->second) << what << " group " << label;
    ++it;
  }
}

// ------------------------------------------ batch ≡ sequential Answer ----

// Group key sets that cannot pack into a 64-bit code: a double fact key and
// an int64 fact key spanning the whole int64 range on one toy fact table, a
// 62-bit key field next to the region and category fields on another. Their
// plans number their key tuples, so they never get cells.
void BindNumberedCodeQueries(storage::Catalog* huge, storage::Catalog* wide,
                             std::vector<query::BoundQuery>* bound) {
  for (int64_t qty : {std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()}) {
    ASSERT_TRUE((*huge->GetTable("Orders"))
                    ->AppendRow({storage::Value(int64_t{3}),
                                 storage::Value(int64_t{1}),
                                 storage::Value(qty), storage::Value(7.0)})
                    .ok());
  }
  ASSERT_TRUE((*wide->GetTable("Orders"))
                  ->AppendRow({storage::Value(int64_t{5}),
                               storage::Value(int64_t{2}),
                               storage::Value(int64_t{1} << 61),
                               storage::Value(3.0)})
                  .ok());

  query::StarJoinQuery by_price = testing_fixture::ToyCountQuery();
  by_price.aggregate = query::AggregateKind::kSum;
  by_price.measure_terms = {{"price", 1.0}};
  by_price.predicates.pop_back();  // keep region='N' only
  by_price.group_by = {{"Orders", "price"}, {"Prod", "cat"}};
  query::StarJoinQuery by_qty = testing_fixture::ToyCountQuery();
  by_qty.group_by = {{"Cust", "region"}, {"Orders", "qty"}, {"Prod", "cat"}};
  query::StarJoinQuery avg_by_qty = by_qty;
  avg_by_qty.aggregate = query::AggregateKind::kAvg;
  avg_by_qty.measure_terms = {{"price", 1.0}};

  query::Binder huge_binder(huge);
  query::Binder wide_binder(wide);
  for (const auto& q : {by_price, by_qty}) {
    auto b = huge_binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound->push_back(std::move(*b));
  }
  for (const auto& q : {by_qty, avg_by_qty}) {
    auto b = wide_binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound->push_back(std::move(*b));
  }
}

// The paper's SSB queries (scalar counts Qc1–Qc4, scalar sums Qs2–Qs4 with an
// AVG twin, grouped sums Qg2/Qg4) plus the numbered-code queries above,
// answered two ways from identically seeded Rngs: one Answer at a time, and
// all together through AnswerBatch. Every other entry's plan is fetched once
// before the batch, so the batch's lookup is that plan's first hit, which
// builds its cells (numbered-code plans never get any). The batch compiles
// the other plans itself, and their entries sweep the fact rows — except
// Qs3's AVG twin, which shares Qs3's plan and so meets its first hit. Every
// answer must match bit for bit at 1 and 4 scan threads, and the receipts
// must count one sweep per entry over the layout that ran.
TEST(AnswerBatchTest, SsbBatchMatchesSequentialWarmExecutionBitForBit) {
  ssb::SsbOptions gen;
  gen.scale_factor = 0.002;
  auto catalog = ssb::GenerateSsb(gen);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  query::Binder binder(&*catalog);

  std::vector<query::BoundQuery> bound;
  for (const char* name :
       {"Qc1", "Qc2", "Qc3", "Qc4", "Qs2", "Qs3", "Qs4", "Qg2", "Qg4"}) {
    auto q = ssb::GetQuery(name);
    ASSERT_TRUE(q.ok()) << name;
    auto b = binder.Bind(*q);
    ASSERT_TRUE(b.ok()) << name << ": " << b.status().ToString();
    bound.push_back(std::move(*b));
  }
  auto avg = ssb::GetQuery("Qs3");
  ASSERT_TRUE(avg.ok());
  avg->aggregate = query::AggregateKind::kAvg;
  auto avg_bound = binder.Bind(*avg);
  ASSERT_TRUE(avg_bound.ok()) << avg_bound.status().ToString();
  bound.push_back(std::move(*avg_bound));
  auto huge = testing_fixture::MakeToyCatalog();
  auto wide = testing_fixture::MakeToyCatalog();
  BindNumberedCodeQueries(&huge, &wide, &bound);
  if (HasFatalFailure()) return;

  int64_t dims = 0;
  std::vector<core::BatchQueryRef> batch;
  for (size_t i = 0; i < bound.size(); ++i) {
    dims += static_cast<int64_t>(bound[i].dims.size());
    batch.push_back({&bound[i], 0.5 + 0.25 * static_cast<double>(i % 3)});
  }

  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (int threads : {1, 4}) {
      const std::string what =
          "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
      exec::ExecutorOptions options;
      options.exec_threads = threads;
      options.morsel_size = 257;  // dozens of morsels: real partial merging
      // Each side gets its own cache, warmed identically.
      auto seq_cache = std::make_shared<exec::PlanCache>();
      auto batch_cache = std::make_shared<exec::PlanCache>();
      for (size_t i = 0; i < bound.size(); i += 2) {
        ASSERT_TRUE(seq_cache->GetOrCompile(bound[i]).ok()) << what;
        ASSERT_TRUE(batch_cache->GetOrCompile(bound[i]).ok()) << what;
      }
      core::PredicateMechanism sequential({}, options, seq_cache);
      core::PredicateMechanism batched({}, options, batch_cache);

      Rng seq_rng(seed);
      std::vector<QueryResult> expected;
      for (const core::BatchQueryRef& ref : batch) {
        auto r = sequential.Answer(*ref.query, ref.epsilon, &seq_rng);
        ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
        expected.push_back(std::move(*r));
      }
      Rng batch_rng(seed);
      exec::WorkloadExecStats stats;
      auto results = batched.AnswerBatch(batch, &batch_rng, nullptr, &stats);
      ASSERT_EQ(results.size(), batch.size()) << what;
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(results[i].ok())
            << what << " query " << i << ": " << results[i].status().ToString();
        ExpectBitIdentical(expected[i], *results[i],
                           what + " query " + std::to_string(i));
      }

      // One sweep per entry: over the cells the batch's first hits built,
      // over the fact rows for the rest.
      EXPECT_EQ(stats.queries, static_cast<int64_t>(batch.size())) << what;
      EXPECT_GT(stats.scans, 0) << what;
      EXPECT_GT(stats.cell_sweeps, 0) << what;
      EXPECT_EQ(stats.cell_sweeps,
                static_cast<int64_t>(batch_cache->GetStats().cell_builds))
          << what;
      EXPECT_EQ(stats.scans + stats.cell_sweeps, stats.queries) << what;
      EXPECT_EQ(stats.predicate_nodes, dims) << what;
    }
  }
}

// ------------------------------------------- mechanism RNG equivalence ----

// AnswerBatch perturbs queries in batch order with the same draws sequential
// Answer calls would make: two mechanisms seeded identically must produce
// bit-identical answers either way. This is the distribution-equivalence
// guarantee (batching is post-processing) made concrete for one seed.
TEST(AnswerBatchTest, AnswerBatchMatchesSequentialAnswersOnSameSeed) {
  auto catalog = testing_fixture::MakeToyCatalog();
  query::Binder binder(&catalog);

  query::StarJoinQuery qa = testing_fixture::ToyCountQuery();
  query::StarJoinQuery qb = testing_fixture::ToyCountQuery();
  qb.predicates[0] =
      query::Predicate::Point("Cust", "region", storage::Value("S"));
  query::StarJoinQuery qc = testing_fixture::ToyCountQuery();
  qc.group_by.push_back({"Cust", "region"});

  std::vector<query::BoundQuery> bound;
  for (const auto& q : {qa, qb, qc}) {
    auto b = binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(*b));
  }
  const double eps[3] = {0.8, 1.2, 2.0};

  core::PredicateMechanism mechanism;
  Rng seq_rng(42);
  std::vector<QueryResult> sequential;
  for (size_t i = 0; i < bound.size(); ++i) {
    auto r = mechanism.Answer(bound[i], eps[i], &seq_rng);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    sequential.push_back(std::move(*r));
  }

  Rng batch_rng(42);
  std::vector<core::BatchQueryRef> batch;
  for (size_t i = 0; i < bound.size(); ++i) batch.push_back({&bound[i], eps[i]});
  exec::WorkloadExecStats stats;
  auto results = mechanism.AnswerBatch(batch, &batch_rng, nullptr, &stats);
  ASSERT_EQ(results.size(), bound.size());
  for (size_t i = 0; i < bound.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    ExpectBitIdentical(sequential[i], *results[i],
                       "query " + std::to_string(i));
  }
  // The toy plans are too small for cells: three fact sweeps, one per entry.
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.scans, 3);
  EXPECT_EQ(stats.cell_sweeps, 0);

  // A null query inside the batch fails alone, without failing the batch.
  // (Its skipped draw shifts the neighbors' noise relative to the full
  // batch — only the error isolation is being checked here.)
  std::vector<core::BatchQueryRef> with_null = batch;
  with_null[1].query = nullptr;
  Rng rng3(42);
  auto partial = mechanism.AnswerBatch(with_null, &rng3);
  ASSERT_EQ(partial.size(), 3u);
  EXPECT_TRUE(partial[0].ok());
  EXPECT_FALSE(partial[1].ok());
  EXPECT_TRUE(partial[2].ok());
}

// ----------------------------------------------- service SubmitWorkload ----

const char* kSqlNA =
    "SELECT count(*) FROM Orders, Cust, Prod "
    "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
    "AND Cust.region = 'N' AND Prod.cat = 'a'";
const char* kSqlSB =
    "SELECT count(*) FROM Orders, Cust, Prod "
    "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
    "AND Cust.region = 'S' AND Prod.cat = 'b'";

TEST(ServiceWorkloadTest, BatchAnswersWithCacheSkipsAndPartialFailure) {
  auto catalog = testing_fixture::MakeToyCatalog();
  service::ServiceOptions opts;
  opts.num_engines = 1;
  service::QueryService svc(&catalog, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 10.0).ok());

  // Warm the answer cache with one paid single-query answer.
  auto warm = svc.Answer(kSqlNA, 0.5, "t");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  std::vector<service::WorkloadQuerySpec> specs = {
      {kSqlNA, 0.5},            // cache hit: replayed, ε refunded
      {kSqlSB, 0.25},           // fresh: answered by the engine
      {"SELECT nope", 0.25},    // bind failure: its ε refunded, rest answer
  };
  auto outcome = svc.SubmitWorkload(specs, "t").get();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->queries.size(), 3u);

  EXPECT_TRUE(outcome->queries[0].status.ok());
  EXPECT_TRUE(outcome->queries[0].cached);
  EXPECT_EQ(outcome->queries[0].result.scalar, warm->scalar);
  EXPECT_TRUE(outcome->queries[1].status.ok());
  EXPECT_FALSE(outcome->queries[1].cached);
  EXPECT_FALSE(outcome->queries[2].status.ok());

  // The tenant paid for the warm answer and the one fresh workload query;
  // the cached replay and the bind failure flowed back.
  EXPECT_NEAR(*svc.ledger().Spent("t"), 0.75, 1e-12);

  service::ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.workload_batches, 1u);
  EXPECT_EQ(stats.workload_queries_fresh, 1u);
  EXPECT_EQ(stats.workload_queries_cached, 1u);
  EXPECT_EQ(stats.workload_queries_failed, 1u);
  EXPECT_EQ(stats.workload_cache_skips, 1u);
  // The batch's queries also count into the regular lifecycle series.
  EXPECT_EQ(stats.submitted, 4u);   // 1 single + 3 batch
  EXPECT_EQ(stats.completed, 3u);   // warm + cached + fresh
  EXPECT_EQ(stats.failed, 1u);

  // A second identical batch replays both answers entirely from cache.
  auto again = svc.SubmitWorkload({{kSqlNA, 0.5}, {kSqlSB, 0.25}}, "t").get();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->queries[0].cached);
  EXPECT_TRUE(again->queries[1].cached);
  EXPECT_NEAR(*svc.ledger().Spent("t"), 0.75, 1e-12);
  EXPECT_EQ(svc.Stats().workload_cache_skips, 3u);
}

TEST(ServiceWorkloadTest, UnderfundedBatchIsRefusedWholeWithNoPartialSpend) {
  auto catalog = testing_fixture::MakeToyCatalog();
  service::QueryService svc(&catalog, service::ServiceOptions{});
  ASSERT_TRUE(svc.RegisterTenant("poor", 0.6).ok());

  auto refused =
      svc.SubmitWorkload({{kSqlNA, 0.5}, {kSqlSB, 0.5}}, "poor").get();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_NEAR(*svc.ledger().Spent("poor"), 0.0, 1e-12);
  EXPECT_EQ(svc.Stats().workload_batches, 0u);
  EXPECT_EQ(svc.Stats().rejected_budget, 2u);

  // The in-flight slots flowed back: a fundable batch still goes through.
  auto ok = svc.SubmitWorkload({{kSqlNA, 0.3}, {kSqlSB, 0.3}}, "poor").get();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->queries[0].status.ok());
  EXPECT_TRUE(ok->queries[1].status.ok());
}

}  // namespace
}  // namespace dpstarj
