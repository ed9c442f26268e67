// Tests for the concurrent DP query service: the multi-tenant budget ledger
// (no over-spend under contention), the noisy-answer cache (bit-identical
// replay at zero ε), the engine pool, and the QueryService facade's
// spend/refund protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "service/answer_cache.h"
#include "service/budget_ledger.h"
#include "service/engine_pool.h"
#include "service/query_service.h"
#include "test_catalog.h"

namespace dpstarj::service {
namespace {

const char* kToySql =
    "SELECT count(*) FROM Orders, Cust, Prod "
    "WHERE Orders.ck = Cust.ck AND Orders.pk = Prod.pk "
    "AND Cust.region = 'N' AND Prod.cat = 'a'";

// ---------------------------------------------------------------- ledger ----

TEST(BudgetLedgerTest, RegisterSpendRefund) {
  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RegisterTenant("a", 1.0).ok());
  EXPECT_EQ(ledger.RegisterTenant("a", 2.0).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(ledger.RegisterTenant("", 1.0).ok());
  EXPECT_FALSE(ledger.RegisterTenant("b", 0.0).ok());
  // Registration is remotely reachable (POST /v1/tenants): a non-finite
  // total would mint an unbounded privacy budget.
  EXPECT_FALSE(
      ledger.RegisterTenant("b", std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(ledger.RegisterTenant("b", std::nan("")).ok());

  ASSERT_TRUE(ledger.Spend("a", 0.4).ok());
  EXPECT_NEAR(*ledger.Remaining("a"), 0.6, 1e-12);
  ASSERT_TRUE(ledger.Refund("a", 0.4).ok());
  EXPECT_NEAR(*ledger.Remaining("a"), 1.0, 1e-12);
  EXPECT_NEAR(*ledger.Spent("a"), 0.0, 1e-12);

  // Unknown tenants are refused when no default budget is configured.
  EXPECT_EQ(ledger.Spend("ghost", 0.1).code(), StatusCode::kNotFound);
  EXPECT_EQ(ledger.Remaining("ghost").status().code(), StatusCode::kNotFound);
}

TEST(BudgetLedgerTest, DefaultBudgetAutoRegisters) {
  BudgetLedger ledger(/*default_tenant_budget=*/0.5);
  ASSERT_TRUE(ledger.Spend("new-tenant", 0.2).ok());
  EXPECT_NEAR(*ledger.Remaining("new-tenant"), 0.3, 1e-12);
  EXPECT_TRUE(ledger.HasTenant("new-tenant"));
  // The default applies only to unseen tenants; explicit registration wins.
  ASSERT_TRUE(ledger.RegisterTenant("vip", 10.0).ok());
  EXPECT_NEAR(*ledger.Remaining("vip"), 10.0, 1e-12);
}

TEST(BudgetLedgerTest, SnapshotIsSorted) {
  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RegisterTenant("beta", 2.0).ok());
  ASSERT_TRUE(ledger.RegisterTenant("alpha", 1.0).ok());
  ASSERT_TRUE(ledger.Spend("beta", 0.5).ok());
  auto snap = ledger.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].tenant, "alpha");
  EXPECT_EQ(snap[1].tenant, "beta");
  EXPECT_NEAR(snap[1].spent, 0.5, 1e-12);
}

// The acceptance-criterion test: hammer one tenant's account from many
// threads; the number of admitted spends must never exceed the budget.
TEST(BudgetLedgerTest, ConcurrentSpendsNeverOverdraw) {
  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 2000;
  constexpr double kEps = 0.001;
  constexpr double kTotal = 1.0;  // room for exactly 1000 admissions

  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RegisterTenant("hot", kTotal).ok());

  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        if (ledger.Spend("hot", kEps).ok()) admitted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  // 16000 attempts compete for 1000 slots: every slot is filled, none minted.
  EXPECT_EQ(admitted.load(), 1000);
  EXPECT_LE(*ledger.Spent("hot"), kTotal + 1e-9);
  EXPECT_NEAR(*ledger.Spent("hot"), kTotal, 1e-9);
}

TEST(BudgetLedgerTest, AccountIsOneConsistentSnapshot) {
  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RegisterTenant("a", 2.0).ok());
  ASSERT_TRUE(ledger.Spend("a", 0.5).ok());
  auto account = ledger.Account("a");
  ASSERT_TRUE(account.ok());
  EXPECT_EQ(account->tenant, "a");
  EXPECT_NEAR(account->total, 2.0, 1e-12);
  EXPECT_NEAR(account->spent, 0.5, 1e-12);
  EXPECT_NEAR(account->remaining, 1.5, 1e-12);
  EXPECT_EQ(ledger.Account("ghost").status().code(), StatusCode::kNotFound);
  // total = spent + remaining holds inside one snapshot even while another
  // thread spends between reads — that is what the single-lock accessor is
  // for (the /v1/tenants/<t> endpoint relies on it).
  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load()) {
      if (!ledger.Spend("a", 0.001).ok()) (void)ledger.Refund("a", 1.0);
    }
  });
  for (int i = 0; i < 2000; ++i) {
    auto snap = ledger.Account("a");
    ASSERT_TRUE(snap.ok());
    EXPECT_NEAR(snap->spent + snap->remaining, snap->total, 1e-9);
  }
  done.store(true);
  churn.join();
}

TEST(BudgetLedgerTest, ConcurrentSpendRefundStaysConsistent) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 1000;
  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RegisterTenant("churn", 1.0).ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (ledger.Spend("churn", 0.01).ok()) {
          ASSERT_TRUE(ledger.Refund("churn", 0.01).ok());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every admitted ε was returned; the account must be exactly balanced.
  EXPECT_NEAR(*ledger.Spent("churn"), 0.0, 1e-9);
  EXPECT_NEAR(*ledger.Remaining("churn"), 1.0, 1e-9);
}

// The satellite acceptance test: spend/refund/exhaustion racing from 8
// threads around a tight budget. Every admitted ε must be conserved — the
// final position equals (admits − refunds) × ε exactly, and the exhaustion
// boundary refuses without corrupting the account.
TEST(BudgetLedgerTest, ConcurrentSpendRefundExhaustionConservesEpsilon) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 2000;
  constexpr double kEps = 0.01;
  constexpr double kTotal = 1.0;  // exhausts after ~100 net spends

  BudgetLedger ledger;
  ASSERT_TRUE(ledger.RegisterTenant("hot", kTotal).ok());

  std::atomic<int> admitted{0}, refunded{0}, exhausted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        Status st = ledger.Spend("hot", kEps);
        if (st.ok()) {
          admitted.fetch_add(1);
          // Refund two of three admissions: the account approaches the
          // exhaustion boundary slowly, so many threads race right at it.
          if ((t + i) % 3 != 0) {
            ASSERT_TRUE(ledger.Refund("hot", kEps).ok());
            refunded.fetch_add(1);
          }
        } else {
          ASSERT_EQ(st.code(), StatusCode::kBudgetExhausted);
          exhausted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // The race must have actually crossed the boundary in both directions.
  EXPECT_GT(exhausted.load(), 0);
  EXPECT_GT(refunded.load(), 0);
  double expected = (admitted.load() - refunded.load()) * kEps;
  EXPECT_NEAR(*ledger.Spent("hot"), expected, 1e-9);
  EXPECT_NEAR(*ledger.Remaining("hot"), kTotal - expected, 1e-9);
  // Conservation: nothing minted, nothing leaked.
  auto account = ledger.Account("hot");
  ASSERT_TRUE(account.ok());
  EXPECT_NEAR(account->spent + account->remaining, kTotal, 1e-9);
  EXPECT_LE(account->spent, kTotal + 1e-9);
}

// ----------------------------------------------------------------- cache ----

exec::QueryResult ScalarResult(double v) {
  exec::QueryResult r;
  r.scalar = v;
  return r;
}

TEST(AnswerCacheTest, HitMissAndEpsilonSaved) {
  AnswerCache cache(4);
  EXPECT_FALSE(cache.Lookup("k1", 0.5).has_value());
  cache.Insert("k1", ScalarResult(42.0));
  auto hit = cache.Lookup("k1", 0.5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->scalar, 42.0);
  auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.epsilon_saved, 0.5);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(AnswerCacheTest, LruEviction) {
  AnswerCache cache(2);
  cache.Insert("a", ScalarResult(1));
  cache.Insert("b", ScalarResult(2));
  ASSERT_TRUE(cache.Lookup("a", 0.1).has_value());  // a is now most recent
  cache.Insert("c", ScalarResult(3));               // evicts b
  EXPECT_TRUE(cache.Lookup("a", 0.1).has_value());
  EXPECT_FALSE(cache.Lookup("b", 0.1).has_value());
  EXPECT_TRUE(cache.Lookup("c", 0.1).has_value());
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AnswerCacheTest, ReinsertKeepsFirstPaidAnswer) {
  AnswerCache cache(4);
  cache.Insert("k", ScalarResult(1.0));
  cache.Insert("k", ScalarResult(2.0));  // racing second computation
  EXPECT_DOUBLE_EQ(cache.Lookup("k", 0.1)->scalar, 1.0);
  EXPECT_EQ(cache.GetStats().insertions, 1u);
}

TEST(AnswerCacheTest, ZeroCapacityDisablesReplay) {
  AnswerCache cache(0);
  cache.Insert("k", ScalarResult(1.0));
  EXPECT_FALSE(cache.Lookup("k", 0.1).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ------------------------------------------------------------------ pool ----

TEST(EnginePoolTest, DispatchesToAllEngines) {
  auto catalog = testing_fixture::MakeToyCatalog();
  EnginePool pool(&catalog, /*num_engines=*/4, /*queue_capacity=*/8);
  std::vector<std::future<Result<exec::QueryResult>>> futures;
  for (int i = 0; i < 32; ++i) {
    auto f = pool.Dispatch([](core::DpStarJoin& engine) {
      return engine.AnswerSql(kToySql, /*epsilon=*/1.0);
    });
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(EnginePoolTest, ShutdownRefusesNewWork) {
  auto catalog = testing_fixture::MakeToyCatalog();
  EnginePool pool(&catalog, 2, 4);
  pool.Shutdown();
  auto f = pool.Dispatch(
      [](core::DpStarJoin&) -> Result<exec::QueryResult> { return ScalarResult(0); });
  EXPECT_FALSE(f.ok());
}

TEST(EnginePoolTest, EnginesHaveIndependentRngStreams) {
  auto catalog = testing_fixture::MakeToyCatalog();
  EnginePool pool(&catalog, 2, 4);
  // Serialize two identical fresh answers through different engines often
  // enough that identical streams would betray themselves. With independent
  // streams the draws differ essentially always.
  std::vector<double> scalars;
  for (int i = 0; i < 4; ++i) {
    auto f = pool.Dispatch([](core::DpStarJoin& engine) {
      return engine.AnswerSql(kToySql, /*epsilon=*/0.1);
    });
    ASSERT_TRUE(f.ok());
    auto r = f->get();
    ASSERT_TRUE(r.ok());
    scalars.push_back(r->scalar);
  }
  bool all_equal = true;
  for (double s : scalars) all_equal = all_equal && s == scalars[0];
  EXPECT_FALSE(all_equal);
}

// A job's result type is its own: a throwing job of any type resolves its
// future to Internal instead of leaving it unset, and a non-throwing one of
// the same type delivers its value.
TEST(EnginePoolTest, ThrowingJobOfAnyResultTypeResolvesToInternal) {
  auto catalog = testing_fixture::MakeToyCatalog();
  EnginePool pool(&catalog, /*num_engines=*/1, /*queue_capacity=*/4);
  auto thrown = pool.Dispatch([](core::DpStarJoin&) -> Result<std::string> {
    throw std::runtime_error("boom");
  });
  ASSERT_TRUE(thrown.ok()) << thrown.status().ToString();
  Result<std::string> got = thrown->get();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_NE(got.status().message().find("boom"), std::string::npos);

  auto fine = pool.TryDispatch(
      [](core::DpStarJoin&) -> Result<std::string> { return std::string("ok"); });
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  Result<std::string> value = fine->get();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, "ok");
}

// Deterministic queue-full behavior: park the single worker on a latch, fill
// the one queue slot, and observe TryDispatch refuse with Unavailable while
// Dispatch would block.
TEST(EnginePoolTest, TryDispatchRefusesWhenFull) {
  auto catalog = testing_fixture::MakeToyCatalog();
  EnginePool pool(&catalog, /*num_engines=*/1, /*queue_capacity=*/1);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> latch(release.get_future());
  // Occupies the worker until released; `started` resolves once the worker
  // has actually picked the job up (the queue slot is free again).
  auto blocker =
      pool.Dispatch([&started, latch](core::DpStarJoin&) -> Result<exec::QueryResult> {
        started.set_value();
        latch.wait();
        return ScalarResult(1);
      });
  ASSERT_TRUE(blocker.ok());
  started.get_future().wait();

  // The worker is parked and the queue is empty: one TryDispatch fills the
  // single slot, the next must refuse without blocking.
  auto queued = pool.TryDispatch(
      [latch](core::DpStarJoin&) -> Result<exec::QueryResult> {
        latch.wait();
        return ScalarResult(2);
      });
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_EQ(pool.queue_depth(), 1u);

  auto refused = pool.TryDispatch(
      [](core::DpStarJoin&) -> Result<exec::QueryResult> { return ScalarResult(3); });
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  release.set_value();
  ASSERT_TRUE(blocker->get().ok());
  ASSERT_TRUE(queued->get().ok());
}

// --------------------------------------------------------------- service ----

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() : catalog_(testing_fixture::MakeToyCatalog()) {}
  storage::Catalog catalog_;
};

TEST_F(QueryServiceTest, CacheReplayIsBitIdenticalAndFree) {
  ServiceOptions opts;
  opts.num_engines = 2;
  QueryService svc(&catalog_, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 1.0).ok());

  auto first = svc.Answer(kToySql, 0.25, "t");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NEAR(*svc.RemainingBudget("t"), 0.75, 1e-12);

  // Same query, formatted differently: canonicalization must still hit.
  auto second = svc.Answer(
      "SELECT count(*) FROM Prod, Orders, Cust "
      "WHERE Prod.cat = 'a' AND Orders.pk = Prod.pk "
      "AND Cust.region = 'N' AND Orders.ck = Cust.ck",
      0.25, "t");
  ASSERT_TRUE(second.ok());
  // Bit-identical replay of the stored noisy draw...
  EXPECT_EQ(first->scalar, second->scalar);
  EXPECT_EQ(first->grouped, second->grouped);
  EXPECT_EQ(first->groups, second->groups);
  // ...at zero additional ε.
  EXPECT_NEAR(*svc.RemainingBudget("t"), 0.75, 1e-12);

  auto stats = svc.Stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.cache.epsilon_saved, 0.25);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(QueryServiceTest, DifferentEpsilonIsNotAReplay) {
  QueryService svc(&catalog_, {});
  ASSERT_TRUE(svc.RegisterTenant("t", 1.0).ok());
  ASSERT_TRUE(svc.Answer(kToySql, 0.25, "t").ok());
  ASSERT_TRUE(svc.Answer(kToySql, 0.5, "t").ok());
  // Both draws were paid for: 1.0 - 0.25 - 0.5.
  EXPECT_NEAR(*svc.RemainingBudget("t"), 0.25, 1e-12);
  EXPECT_EQ(svc.Stats().cache.hits, 0u);
}

TEST_F(QueryServiceTest, BindFailureRefundsTheBudget) {
  QueryService svc(&catalog_, {});
  ASSERT_TRUE(svc.RegisterTenant("t", 1.0).ok());

  auto r = svc.Answer("SELECT count(*) FROM NoSuchTable", 0.3, "t");
  ASSERT_FALSE(r.ok());
  // The ε spent at admission must have flowed back in full.
  EXPECT_NEAR(*svc.RemainingBudget("t"), 1.0, 1e-12);

  auto garbage = svc.Answer("THIS IS NOT SQL", 0.3, "t");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NEAR(*svc.RemainingBudget("t"), 1.0, 1e-12);
  EXPECT_EQ(svc.Stats().failed, 2u);
}

TEST_F(QueryServiceTest, RejectsBadEpsilonAndUnknownTenant) {
  QueryService svc(&catalog_, {});
  ASSERT_TRUE(svc.RegisterTenant("t", 1.0).ok());
  EXPECT_EQ(svc.Answer(kToySql, 0.0, "t").status().code(),
            StatusCode::kInvalidArgument);
  // NaN/inf ε must be refused at admission — it would otherwise poison the
  // tenant's ledger and feed a NaN noise scale to the mechanism.
  EXPECT_EQ(svc.Answer(kToySql, std::nan(""), "t").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Answer(kToySql, std::numeric_limits<double>::infinity(), "t")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_NEAR(*svc.RemainingBudget("t"), 1.0, 1e-12);
  EXPECT_EQ(svc.Answer(kToySql, 0.1, "nobody").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(svc.Stats().rejected_budget, 1u);
}

TEST_F(QueryServiceTest, BudgetExhaustionIsARefusalNotACrash) {
  QueryService svc(&catalog_, {});
  ASSERT_TRUE(svc.RegisterTenant("t", 0.5).ok());
  ASSERT_TRUE(svc.Answer(kToySql, 0.5, "t").ok());
  // A fresh (uncached) query can no longer be paid for.
  auto r = svc.Answer(
      "SELECT count(*) FROM Orders, Cust WHERE Orders.ck = Cust.ck "
      "AND Cust.region = 'S'",
      0.1, "t");
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
}

TEST_F(QueryServiceTest, ExhaustedTenantStillGetsFreeReplays) {
  QueryService svc(&catalog_, {});
  ASSERT_TRUE(svc.RegisterTenant("t", 0.5).ok());
  auto paid = svc.Answer(kToySql, 0.5, "t");
  ASSERT_TRUE(paid.ok());
  ASSERT_NEAR(*svc.RemainingBudget("t"), 0.0, 1e-12);
  // The tenant is broke, but re-reading the answer it already paid for is
  // post-processing — the replay must succeed, bit-identical, at zero ε.
  auto replay = svc.Answer(kToySql, 0.5, "t");
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(paid->scalar, replay->scalar);
  EXPECT_NEAR(*svc.RemainingBudget("t"), 0.0, 1e-12);
  // A different query (or the same one at a different ε) is a fresh draw and
  // is still refused.
  EXPECT_EQ(svc.Answer(kToySql, 0.25, "t").status().code(),
            StatusCode::kBudgetExhausted);
}

// The acceptance-criterion test: ≥8 threads submitting concurrently against
// one tenant must never over-spend its ledger, and every admitted ε must be
// accounted for (spent on success, refunded on failure).
TEST_F(QueryServiceTest, ConcurrentSubmitsNeverOverspendATenant) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  constexpr double kEps = 0.01;
  constexpr double kTotal = 1.0;  // room for 100 of the 400 attempted queries

  ServiceOptions opts;
  opts.num_engines = 4;
  opts.queue_capacity = 16;
  opts.cache_capacity = 0;  // every admitted query must pay (no replays)
  QueryService svc(&catalog_, opts);
  ASSERT_TRUE(svc.RegisterTenant("hot", kTotal).ok());

  std::atomic<int> ok_count{0}, refused{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct constants so distinct queries hammer the pool.
        int tier = (t * kPerThread + i) % 4 + 1;
        std::string sql = Format(
            "SELECT count(*) FROM Orders, Cust WHERE Orders.ck = Cust.ck "
            "AND Cust.tier <= %d",
            tier);
        auto r = svc.Answer(sql, kEps, "hot");
        if (r.ok()) {
          ok_count.fetch_add(1);
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
          refused.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok_count.load() + refused.load(), kThreads * kPerThread);
  // Exactly the budget's worth of queries got through.
  EXPECT_EQ(ok_count.load(), 100);
  double spent = *svc.ledger().Spent("hot");
  EXPECT_LE(spent, kTotal + 1e-9);
  EXPECT_NEAR(spent, ok_count.load() * kEps, 1e-9);
}

TEST_F(QueryServiceTest, ConcurrentMixedWorkloadAccountsExactly) {
  // Success, bind failure, and cache replay interleaved across threads: the
  // final ledger position must equal ε × (fresh successful answers) exactly.
  ServiceOptions opts;
  opts.num_engines = 4;
  QueryService svc(&catalog_, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 100.0).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  constexpr double kEps = 0.05;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        switch ((t + i) % 3) {
          case 0:  // shared query — at most one fresh draw, rest replays
            (void)svc.Answer(kToySql, kEps, "t");
            break;
          case 1:  // bind failure — full refund
            (void)svc.Answer("SELECT count(*) FROM Missing", kEps, "t");
            break;
          default:  // per-thread query — one fresh draw per thread
            (void)svc.Answer(
                Format("SELECT count(*) FROM Orders, Cust "
                       "WHERE Orders.ck = Cust.ck AND Cust.tier = %d",
                       t % 4 + 1),
                kEps, "t");
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  auto stats = svc.Stats();
  // Paid answers = completed minus replays; ledger must agree to the cent.
  uint64_t paid = stats.completed - stats.cache.hits;
  EXPECT_NEAR(*svc.ledger().Spent("t"), static_cast<double>(paid) * kEps, 1e-9);
  EXPECT_EQ(stats.cache.misses, paid);
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_GT(stats.failed, 0u);
}

// TrySubmit under saturation: whatever mix of answers and Unavailable
// refusals the race produces, the ledger position must equal ε × (paid
// answers) exactly — every shed query's admission ε flowed back — and the
// stats must classify refusals as overload, not failure.
TEST_F(QueryServiceTest, TrySubmitShedsLoadAndRefundsExactly) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  constexpr double kEps = 0.01;

  ServiceOptions opts;
  opts.num_engines = 1;
  opts.queue_capacity = 1;
  opts.cache_capacity = 0;  // every answered query pays
  QueryService svc(&catalog_, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 1e6).ok());

  std::atomic<uint64_t> answered{0}, shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string sql = Format(
            "SELECT count(*) FROM Orders, Cust WHERE Orders.ck = Cust.ck "
            "AND Cust.tier <= %d",
            (t * kPerThread + i) % 4 + 1);
        auto r = svc.TrySubmit(sql, kEps, "t").get();
        if (r.ok()) {
          answered.fetch_add(1);
        } else {
          ASSERT_EQ(r.status().code(), StatusCode::kUnavailable)
              << r.status().ToString();
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(answered.load() + shed.load(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_GT(answered.load(), 0u);
  EXPECT_NEAR(*svc.ledger().Spent("t"),
              static_cast<double>(answered.load()) * kEps, 1e-9);
  auto stats = svc.Stats();
  EXPECT_EQ(stats.completed, answered.load());
  EXPECT_EQ(stats.rejected_overload, shed.load());
  EXPECT_EQ(stats.failed, 0u);
  // Shed queries were never counted as submitted work.
  EXPECT_EQ(stats.submitted, answered.load());
}

TEST_F(QueryServiceTest, TrySubmitMatchesSubmitWhenUncontended) {
  ServiceOptions opts;
  opts.num_engines = 2;
  QueryService svc(&catalog_, opts);
  ASSERT_TRUE(svc.RegisterTenant("t", 1.0).ok());
  auto r = svc.TrySubmit(kToySql, 0.25, "t").get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(*svc.RemainingBudget("t"), 0.75, 1e-12);
  // Same canonical query replays from the cache at zero ε, like Submit.
  auto replay = svc.TrySubmit(kToySql, 0.25, "t").get();
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(r->scalar, replay->scalar);
  EXPECT_NEAR(*svc.RemainingBudget("t"), 0.75, 1e-12);
  // Invalid arguments are refused identically.
  EXPECT_EQ(svc.TrySubmit(kToySql, 0.0, "t").get().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.TrySubmit(kToySql, 0.1, "nobody").get().status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace dpstarj::service
