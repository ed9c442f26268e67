// Tests for the workload-level shared-scan compiler (exec/workload_plan.h)
// and the layers above it: batched execution is bit-identical to one-at-a-time
// warm execution on the paper's SSB COUNT, SUM, AVG and GROUP BY queries under
// randomized predicate overrides, in batches that mix plans with cells and
// plans without — also with more than 8 and more than 64 predicate nodes on
// one dimension slot — and to the naive oracle on GROUP BY key sets that
// cannot pack into 64 bits, the predicate CSE actually dedupes bitmap builds
// (the stats receipts prove it), multithreaded batch execution is deterministic
// across thread counts and repetitions, PredicateMechanism::AnswerBatch
// consumes the RNG exactly like sequential Answer calls, and the service's
// SubmitWorkload handles cache skips, partial failure and budget refunds.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/predicate_mechanism.h"
#include "exec/naive_executor.h"
#include "exec/plan_cache.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "exec/workload_plan.h"
#include "query/binder.h"
#include "service/query_service.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "test_catalog.h"

namespace dpstarj {
namespace {

using exec::ExecutorOptions;
using exec::QueryResult;
using exec::StarJoinExecutor;
using exec::WorkloadItem;
using exec::WorkloadPlan;

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

int64_t RandInt(std::mt19937& rng, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
}

// Random per-dimension predicate replacements in domain-index space — the
// shape the Predicate Mechanism feeds every noisy run.
exec::PredicateOverrides MakeRandomOverrides(std::mt19937& rng,
                                             const query::BoundQuery& bound) {
  exec::PredicateOverrides overrides(bound.dims.size());
  for (size_t i = 0; i < bound.dims.size(); ++i) {
    if (bound.dims[i].predicates.empty()) continue;
    std::vector<query::BoundPredicate> noisy = bound.dims[i].predicates;
    for (auto& p : noisy) {
      int64_t m = p.domain.size();
      p.lo_index = RandInt(rng, 0, m - 1);
      p.hi_index = RandInt(rng, p.lo_index, m - 1);
      p.kind = p.lo_index == p.hi_index ? query::PredicateKind::kPoint
                                        : query::PredicateKind::kRange;
    }
    overrides[i] = std::move(noisy);
  }
  return overrides;
}

// ------------------------------------------ SSB batch ≡ sequential warm ----

// Binds `q` and compiles its plan into `bound` / `plans`.
void BindAndCompile(const query::Binder& binder, const query::StarJoinQuery& q,
                    exec::PlanColumnStore& columns,
                    std::vector<query::BoundQuery>* bound,
                    std::vector<std::shared_ptr<const exec::ScanPlan>>* plans) {
  auto b = binder.Bind(q);
  ASSERT_TRUE(b.ok()) << q.name << ": " << b.status().ToString();
  auto plan = exec::ScanPlan::Compile(*b, columns);
  ASSERT_TRUE(plan.ok()) << q.name << ": " << plan.status().ToString();
  bound->push_back(std::move(*b));
  plans->push_back(std::make_shared<exec::ScanPlan>(std::move(*plan)));
}

// Executes `items` as one batch and each item alone through the single-query
// path with the same options, expecting every answer bit-identical.
void ExpectBatchMatchesSequential(const std::vector<WorkloadItem>& items,
                                  const std::vector<int>& thread_counts,
                                  int64_t morsel_size, const std::string& what) {
  auto wplan = WorkloadPlan::Compile(items);
  ASSERT_TRUE(wplan.ok()) << wplan.status().ToString();
  for (int threads : thread_counts) {
    ExecutorOptions options;
    options.exec_threads = threads;
    options.morsel_size = morsel_size;
    StarJoinExecutor executor(options);
    auto batched = wplan->Execute(options);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_EQ(batched->size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const WorkloadItem& it = items[i];
      auto sequential = executor.Execute(*it.query, *it.overrides, *it.plan);
      ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
      ExpectBitIdentical(*sequential, (*batched)[i],
                         what + " query " + std::to_string(i) + " threads " +
                             std::to_string(threads));
    }
  }
}

// The paper's SSB queries (scalar counts Qc1–Qc4, scalar sums Qs2–Qs4 with an
// AVG twin, grouped sums Qg2/Qg4), answered two ways under the same
// randomized overrides: one at a time through the warm cached-plan path, and
// all together through one batch. Every other plan has cells, so the batch
// mixes the shared row sweep with cell sweeps; every answer must match
// bit-for-bit at every thread count.
TEST(WorkloadPlanTest, SsbBatchMatchesSequentialWarmExecutionBitForBit) {
  ssb::SsbOptions gen;
  gen.scale_factor = 0.002;
  auto catalog = ssb::GenerateSsb(gen);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  query::Binder binder(&*catalog);

  std::vector<query::BoundQuery> bound;
  std::vector<std::shared_ptr<const exec::ScanPlan>> plans;
  exec::PlanColumnStore columns;
  for (const char* name :
       {"Qc1", "Qc2", "Qc3", "Qc4", "Qs2", "Qs3", "Qs4", "Qg2", "Qg4"}) {
    auto q = ssb::GetQuery(name);
    ASSERT_TRUE(q.ok()) << name;
    BindAndCompile(binder, *q, columns, &bound, &plans);
  }
  auto avg = ssb::GetQuery("Qs3");
  ASSERT_TRUE(avg.ok());
  avg->aggregate = query::AggregateKind::kAvg;
  BindAndCompile(binder, *avg, columns, &bound, &plans);
  // Cells for Qc1, Qc3, Qs2, Qs4 and Qg4, built past PlanCache's size rule.
  for (size_t i = 0; i < plans.size(); i += 2) {
    auto with_cells =
        exec::ScanPlan::WithCells(*plans[i], bound[i], uint64_t{1} << 24);
    ASSERT_TRUE(with_cells.ok()) << with_cells.status().ToString();
    plans[i] = std::make_shared<exec::ScanPlan>(std::move(*with_cells));
  }

  for (uint32_t seed = 1; seed <= 5; ++seed) {
    std::mt19937 rng(seed);
    std::vector<exec::PredicateOverrides> overrides;
    overrides.reserve(bound.size());
    for (const auto& b : bound) overrides.push_back(MakeRandomOverrides(rng, b));

    std::vector<WorkloadItem> items;
    for (size_t i = 0; i < bound.size(); ++i) {
      WorkloadItem item;
      item.query = &bound[i];
      item.overrides = &overrides[i];
      item.plan = plans[i];
      items.push_back(std::move(item));
    }
    auto wplan = WorkloadPlan::Compile(items);
    ASSERT_TRUE(wplan.ok()) << wplan.status().ToString();
    // One fact table, ten queries: one shared sweep for the five row-swept
    // items, and one cell sweep for each of the other five.
    EXPECT_EQ(wplan->stats().queries, 10);
    EXPECT_EQ(wplan->stats().scans, 1);
    EXPECT_EQ(wplan->stats().cell_sweeps, 5);
    // morsel_size 257: dozens of morsels, so real partial merging.
    ExpectBatchMatchesSequential(items, {1, 4}, /*morsel_size=*/257,
                                 "seed " + std::to_string(seed));
  }
}

// Batches whose items filter one dimension slot (Part) with `num_nodes`
// distinct category ranges, so that slot packs its nodes into several byte
// tables: 20 nodes (three tables) and 80 nodes (ten tables). Items rotate
// through scalar COUNT, SUM and AVG; every answer must match the
// single-query path bit-for-bit at 1, 4 and 8 threads and odd morsel sizes.
TEST(WorkloadPlanTest, ManyNodesOnOneSlotMatchSequentialBitForBit) {
  ssb::SsbOptions gen;
  gen.scale_factor = 0.002;
  auto catalog = ssb::GenerateSsb(gen);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  query::Binder binder(&*catalog);

  std::vector<query::BoundQuery> bound;
  std::vector<std::shared_ptr<const exec::ScanPlan>> plans;
  exec::PlanColumnStore columns;
  auto count = ssb::GetQuery("Qc2");
  auto sum = ssb::GetQuery("Qs2");
  ASSERT_TRUE(count.ok() && sum.ok());
  query::StarJoinQuery avg = *sum;
  avg.aggregate = query::AggregateKind::kAvg;
  for (const auto& q : {*count, *sum, avg}) {
    BindAndCompile(binder, q, columns, &bound, &plans);
  }
  // Qc2/Qs2 filter Part.category and Supplier.region. At this scale no
  // supplier is in AMERICA, so every item drops its Supplier filter.
  size_t part_dim = bound[0].dims.size();
  size_t supplier_dim = bound[0].dims.size();
  for (size_t i = 0; i < bound[0].dims.size(); ++i) {
    if (bound[0].dims[i].table == "Part") part_dim = i;
    if (bound[0].dims[i].table == "Supplier") supplier_dim = i;
  }
  ASSERT_LT(part_dim, bound[0].dims.size());
  ASSERT_LT(supplier_dim, bound[0].dims.size());
  ASSERT_EQ(bound[0].dims[part_dim].predicates.size(), 1u);
  const int64_t m = bound[0].dims[part_dim].predicates[0].domain.size();

  for (int num_nodes : {20, 80}) {
    ASSERT_LE(num_nodes, m * (m + 1) / 2);
    // Item i filters category range number i, enumerated (lo, hi) with
    // lo ≤ hi, so all ranges are distinct.
    std::vector<exec::PredicateOverrides> overrides(
        static_cast<size_t>(num_nodes));
    int n = 0;
    for (int64_t lo = 0; lo < m && n < num_nodes; ++lo) {
      for (int64_t hi = lo; hi < m && n < num_nodes; ++hi, ++n) {
        const size_t shape = static_cast<size_t>(n) % bound.size();
        std::vector<query::BoundPredicate> preds =
            bound[shape].dims[part_dim].predicates;
        preds[0].lo_index = lo;
        preds[0].hi_index = hi;
        preds[0].kind = lo == hi ? query::PredicateKind::kPoint
                                 : query::PredicateKind::kRange;
        exec::PredicateOverrides& ov = overrides[static_cast<size_t>(n)];
        ov.resize(bound[shape].dims.size());
        ov[part_dim] = std::move(preds);
        ov[supplier_dim] = std::vector<query::BoundPredicate>{};
      }
    }
    std::vector<WorkloadItem> items;
    for (int i = 0; i < num_nodes; ++i) {
      const size_t shape = static_cast<size_t>(i) % bound.size();
      WorkloadItem item;
      item.query = &bound[shape];
      item.overrides = &overrides[static_cast<size_t>(i)];
      item.plan = plans[shape];
      items.push_back(std::move(item));
    }
    auto wplan = WorkloadPlan::Compile(items);
    ASSERT_TRUE(wplan.ok()) << wplan.status().ToString();
    // Date and Supplier join without predicates (one node each), Part has
    // one node per item.
    EXPECT_EQ(wplan->stats().shared_dim_slots, 3);
    EXPECT_EQ(wplan->stats().predicate_nodes, num_nodes + 2);
    auto answers = wplan->Execute(ExecutorOptions{});
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    int nonzero = 0;
    for (const QueryResult& r : *answers) nonzero += r.scalar != 0.0 ? 1 : 0;
    EXPECT_EQ(nonzero, num_nodes);  // every category range matches some row
    for (int64_t morsel_size : {257, 1001}) {
      ExpectBatchMatchesSequential(
          items, {1, 4, 8}, morsel_size,
          std::to_string(num_nodes) + " nodes, morsel " +
              std::to_string(morsel_size));
    }
  }
}

// --------------------------------------------------------- predicate CSE ----

// Three queries over the toy schema: two share BOTH predicate lists verbatim,
// the third shares the customer predicate and joins Prod without filtering
// it. The compiler must build one bitmap per distinct (slot, predicate-list)
// node — 3 nodes for 6 references — and gather each dimension's FK column
// once (2 slots).
TEST(WorkloadPlanTest, CseDedupesIdenticalPredicateNodes) {
  auto catalog = testing_fixture::MakeToyCatalog();
  query::Binder binder(&catalog);

  query::StarJoinQuery a = testing_fixture::ToyCountQuery();
  query::StarJoinQuery b = testing_fixture::ToyCountQuery();  // A's twin
  query::StarJoinQuery c = testing_fixture::ToyCountQuery();
  c.predicates.pop_back();  // keep region='N', drop the Prod filter

  std::vector<query::BoundQuery> bound;
  std::vector<std::shared_ptr<const exec::ScanPlan>> plans;
  exec::PlanColumnStore columns;
  for (const auto& q : {a, b, c}) {
    auto bq = binder.Bind(q);
    ASSERT_TRUE(bq.ok()) << bq.status().ToString();
    auto plan = exec::ScanPlan::Compile(*bq, columns);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    bound.push_back(std::move(*bq));
    plans.push_back(std::make_shared<exec::ScanPlan>(std::move(*plan)));
  }

  std::vector<WorkloadItem> items;
  for (size_t i = 0; i < bound.size(); ++i) {
    WorkloadItem item;
    item.query = &bound[i];
    item.plan = plans[i];
    items.push_back(std::move(item));
  }
  auto wplan = WorkloadPlan::Compile(std::move(items));
  ASSERT_TRUE(wplan.ok()) << wplan.status().ToString();

  const exec::WorkloadExecStats& stats = wplan->stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.scans, 1);
  EXPECT_EQ(stats.predicate_refs, 6);   // 3 queries × 2 dims
  EXPECT_EQ(stats.predicate_nodes, 3);  // Cust[N], Prod[a], Prod[join-only]
  EXPECT_EQ(stats.shared_dim_slots, 2);

  // The deduped plan still answers correctly: region-N ∧ cat-a twice (= 2 on
  // the fixture), region-N unfiltered once (= 4 orders by ck ∈ {1,2}).
  auto results = wplan->Execute(ExecutorOptions{});
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].scalar, 2.0);
  EXPECT_EQ((*results)[1].scalar, 2.0);
  EXPECT_EQ((*results)[2].scalar, 4.0);
}

// ------------------------------------------------- unpackable group keys ----

// Group key sets that cannot pack into a 64-bit code (a double fact key, an
// int64 fact key spanning ≥ 2^62, fields wider than 64 bits in total) number
// their key tuples instead; batched next to packed queries, over two fact
// tables, they still match the oracle bit-for-bit under random overrides.
TEST(WorkloadPlanTest, UnpackableGroupKeysMatchNaiveThroughBatch) {
  // Catalog A: qty spans the whole int64 range. Catalog B: qty spans 2^61,
  // a 62-bit field next to the region and category fields.
  auto huge = testing_fixture::MakeToyCatalog();
  auto wide = testing_fixture::MakeToyCatalog();
  for (int64_t qty : {std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()}) {
    ASSERT_TRUE((*huge.GetTable("Orders"))
                    ->AppendRow({storage::Value(int64_t{3}),
                                 storage::Value(int64_t{1}),
                                 storage::Value(qty), storage::Value(7.0)})
                    .ok());
  }
  ASSERT_TRUE((*wide.GetTable("Orders"))
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
  const query::StarJoinQuery packed = testing_fixture::ToyCountQuery();

  query::Binder huge_binder(&huge);
  query::Binder wide_binder(&wide);
  std::vector<query::BoundQuery> bound;
  for (const auto& q : {by_price, by_qty, packed}) {
    auto b = huge_binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(*b));
  }
  for (const auto& q : {by_qty, avg_by_qty}) {
    auto b = wide_binder.Bind(q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    bound.push_back(std::move(*b));
  }
  std::vector<std::shared_ptr<const exec::ScanPlan>> plans;
  exec::PlanColumnStore columns;
  for (const auto& b : bound) {
    auto plan = exec::ScanPlan::Compile(b, columns);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::make_shared<exec::ScanPlan>(std::move(*plan)));
  }
  const bool expect_numbered[] = {true, true, false, true, true};
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(plans[i]->numbered_codes, expect_numbered[i]) << "query " << i;
  }

  for (uint32_t seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(seed);
    std::vector<exec::PredicateOverrides> overrides;
    for (const auto& b : bound) overrides.push_back(MakeRandomOverrides(rng, b));
    std::vector<WorkloadItem> items;
    for (size_t i = 0; i < bound.size(); ++i) {
      WorkloadItem item;
      item.query = &bound[i];
      item.overrides = &overrides[i];
      item.plan = plans[i];
      items.push_back(std::move(item));
    }
    auto wplan = WorkloadPlan::Compile(std::move(items));
    ASSERT_TRUE(wplan.ok()) << wplan.status().ToString();
    EXPECT_EQ(wplan->stats().scans, 2);  // one sweep per fact table
    for (int threads : {1, 4}) {
      ExecutorOptions options;
      options.exec_threads = threads;
      options.morsel_size = 5;
      auto batched = wplan->Execute(options);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      for (size_t i = 0; i < bound.size(); ++i) {
        auto naive = exec::ExecuteNaive(bound[i], overrides[i]);
        ASSERT_TRUE(naive.ok()) << naive.status().ToString();
        ExpectBitIdentical(*naive, (*batched)[i],
                           "seed " + std::to_string(seed) + " query " +
                               std::to_string(i) + " threads " +
                               std::to_string(threads));
      }
    }
  }
}

// ------------------------------------------------ determinism / threads ----

// The merged result must not depend on the worker count or on which worker
// claimed which morsel: repeated executions at 1 and 4 threads all agree
// bit-for-bit. (Run under TSan, this is also the batch path's race check.)
TEST(WorkloadPlanTest, BatchExecutionIsDeterministicAcrossThreadCounts) {
  ssb::SsbOptions gen;
  gen.scale_factor = 0.002;
  auto catalog = ssb::GenerateSsb(gen);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  query::Binder binder(&*catalog);

  std::vector<query::BoundQuery> bound;
  std::vector<std::shared_ptr<const exec::ScanPlan>> plans;
  exec::PlanColumnStore columns;
  for (const char* name : {"Qc2", "Qg2", "Qg4"}) {
    auto q = ssb::GetQuery(name);
    ASSERT_TRUE(q.ok());
    auto b = binder.Bind(*q);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    auto plan = exec::ScanPlan::Compile(*b, columns);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    bound.push_back(std::move(*b));
    plans.push_back(std::make_shared<exec::ScanPlan>(std::move(*plan)));
  }
  std::vector<WorkloadItem> items;
  for (size_t i = 0; i < bound.size(); ++i) {
    WorkloadItem item;
    item.query = &bound[i];
    item.plan = plans[i];
    items.push_back(std::move(item));
  }
  auto wplan = WorkloadPlan::Compile(std::move(items));
  ASSERT_TRUE(wplan.ok()) << wplan.status().ToString();

  ExecutorOptions reference_options;
  reference_options.exec_threads = 1;
  reference_options.morsel_size = 257;
  auto reference = wplan->Execute(reference_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int threads : {1, 4}) {
    for (int rep = 0; rep < 3; ++rep) {
      ExecutorOptions options;
      options.exec_threads = threads;
      options.morsel_size = 257;
      auto got = wplan->Execute(options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got->size(), reference->size());
      for (size_t i = 0; i < reference->size(); ++i) {
        ExpectBitIdentical((*reference)[i], (*got)[i],
                           "threads " + std::to_string(threads) + " rep " +
                               std::to_string(rep) + " query " +
                               std::to_string(i));
      }
    }
  }
}

// ------------------------------------------- mechanism RNG equivalence ----

// AnswerBatch perturbs queries in batch order with the same draws sequential
// Answer calls would make: two mechanisms seeded identically must produce
// bit-identical answers either way. This is the distribution-equivalence
// guarantee (batching is post-processing) made concrete for one seed.
TEST(WorkloadPlanTest, AnswerBatchMatchesSequentialAnswersOnSameSeed) {
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
  // All three rode one shared sweep.
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.scans, 1);

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
      {kSqlSB, 0.25},           // fresh: rides the shared scan
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
