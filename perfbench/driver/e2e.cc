// The end-to-end run (`--trace 0`): set up the stack several times (setup_s
// is their median, and the exact counts of every warm-up must agree), drive
// the last one in a closed loop, check every answer and count against the
// workload model, then price accuracy against exact answers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <list>
#include <map>

#include "common/string_util.h"
#include "exec/plan_cache.h"
#include "report.h"
#include "runner.h"
#include "stack.h"
#include "util.h"

namespace perfbench {

namespace {

using dpstarj::Format;

constexpr int kSetups = 9;
/// Fresh answers whose exact values are computed to price accuracy (fewer
/// let rel_error_p50_pct move by a sixth between seeds).
constexpr size_t kAccuracySamples = 1500;

/// The server's plan cache as the op sequence drives it: an LRU of
/// execution signatures with PlanCache's default entry capacity, consulted
/// once per answer. A signature's first use
/// compiles (a miss, evicting the least recently used entry when full), and
/// its first use at a newer epoch extends the cached plan (a hit). The
/// scaffold byte budget is not modelled: a run in which it evicts fails the
/// eviction check.
struct PlanModel {
  struct Counts {
    uint64_t hits = 0, misses = 0, extends = 0, evictions = 0;
  };

  // Not copyable: `index` points into `lru`.
  PlanModel() = default;
  PlanModel(const PlanModel&) = delete;
  PlanModel& operator=(const PlanModel&) = delete;

  std::list<std::pair<std::string, uint64_t>> lru;  // front = most recent
  std::map<std::string, std::list<std::pair<std::string, uint64_t>>::iterator> index;
  Counts counts;

  void Apply(const Op& op) {
    for (const QuerySpec& q : op.queries) {
      auto it = index.find(q.signature);
      if (it != index.end()) {
        ++counts.hits;
        if (it->second->second < op.expected_epoch) {
          ++counts.extends;
          it->second->second = op.expected_epoch;
        }
        lru.splice(lru.begin(), lru, it->second);
        continue;
      }
      ++counts.misses;
      lru.emplace_front(q.signature, op.expected_epoch);
      index[q.signature] = lru.begin();
      if (lru.size() > dpstarj::exec::PlanCache::kDefaultCapacity) {
        index.erase(lru.back().first);
        lru.pop_back();
        ++counts.evictions;
      }
    }
  }
};

/// Collects exact-count mismatches; each one fails the run.
struct Verdicts {
  std::vector<std::string> problems;

  void Expect(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void ExpectEq(uint64_t got, uint64_t want, const char* what) {
    Expect(got == want, Format("%s: got %llu, model says %llu", what,
                               static_cast<unsigned long long>(got),
                               static_cast<unsigned long long>(want)));
  }
};

std::vector<double> RelativeErrorsPct(const std::vector<Answer>& answers,
                                      const std::vector<double>& exact) {
  std::vector<double> errors;
  for (size_t i = 0; i < answers.size(); ++i) {
    if (exact[i] == 0.0) continue;  // undefined for an empty true answer
    errors.push_back(100.0 * std::fabs(answers[i].value - exact[i]) / std::fabs(exact[i]));
  }
  return errors;
}

/// latency_p99_ms: the median, over windows of kMinTimedRequests consecutive
/// requests (the last window takes the remainder), of each window's p99. A
/// whole-run p99 is set by the host's worst few stalls; the median of window
/// p99s keeps a burst of them to the windows it hit. Runs shorter than two
/// windows report the whole-run p99.
double WindowedP99(const std::vector<double>& latency_ms) {
  const size_t windows = std::max<size_t>(1, latency_ms.size() / kMinTimedRequests);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = latency_ms.begin() + static_cast<ptrdiff_t>(w * kMinTimedRequests);
    const auto end = w + 1 == windows
                         ? latency_ms.end()
                         : begin + static_cast<ptrdiff_t>(kMinTimedRequests);
    p99s.push_back(Quantile(std::vector<double>(begin, end), 0.99));
  }
  return Quantile(p99s, 0.5);
}

}  // namespace

int RunEndToEnd(const Workload& workload, double seconds) {
  const WorkloadConfig& config = workload.config();
  Verdicts verdicts;
  uint64_t attempted = 0, failed = 0;
  std::vector<double> setup_s;
  ExactCounts first_warm;
  uint64_t warm_answered = 0;

  PlanModel model;
  for (const Op& op : workload.WarmupOps()) model.Apply(op);
  const PlanModel::Counts warm_model = model.counts;

  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kSetups; ++r) {
    stack.reset();  // one stack alive at a time, so peak RSS is one stack's
    const auto t0 = Clock::now();
    auto started = Stack::Start(workload);
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: setup: %s\n", started.status().ToString().c_str());
      return 1;
    }
    LoopResult warm = RunWarmup(workload, **started);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    stack = std::move(*started);
    attempted += warm.ops;
    failed += warm.failed;
    ReportErrors(warm, "warm-up");

    const ExactCounts counts = ReadCounts(*stack);
    if (r == 0) {
      first_warm = counts;
      verdicts.Expect(counts.epsilon_spent == warm.fresh_epsilon,
                      Format("warm-up epsilon spent %.17g != sum of fresh answers %.17g",
                             counts.epsilon_spent, warm.fresh_epsilon));
      verdicts.ExpectEq(counts.answer_hits, 0, "warm-up answer-cache hits");
      verdicts.ExpectEq(counts.plan_hits, warm_model.hits, "warm-up plan hits");
      verdicts.ExpectEq(counts.plan_misses, warm_model.misses, "warm-up plan misses");
      verdicts.ExpectEq(counts.plan_extends, warm_model.extends, "warm-up plan extends");
      verdicts.ExpectEq(counts.plan_evictions, warm_model.evictions,
                        "warm-up plan evictions");
    } else {
      verdicts.Expect(counts == first_warm,
                      Format("setup %d counts differ from setup 0 on the same seed: "
                             "%s vs %s",
                             r, counts.ToString().c_str(), first_warm.ToString().c_str()));
    }
    warm_answered = warm.queries_answered;
  }
  std::printf("# setup: %d stacks, exact counts after warm-up: %s\n", kSetups,
              first_warm.ToString().c_str());

  // ---- timed closed loop on the last stack --------------------------------
  const ExactCounts base = ReadCounts(*stack);
  LoopOptions options;
  options.connections = config.connections;
  options.seconds = seconds;
  options.op_limit = workload.FixedOpCount(seconds);
  LoopResult run = RunClosedLoop(workload, *stack, options);
  const double rss_mb = PeakRssMb();
  const ExactCounts after = ReadCounts(*stack);
  attempted += run.ops;
  failed += run.failed;
  ReportErrors(run, "timed");

  // ---- exact counts against the model -------------------------------------
  verdicts.ExpectEq(after.answer_hits - base.answer_hits, 0, "answer-cache hits");
  verdicts.ExpectEq(after.answer_lookups - base.answer_lookups, run.queries_answered,
                    "answer-cache lookups");
  verdicts.Expect(after.epsilon_spent - base.epsilon_spent == run.fresh_epsilon,
                  Format("ledger epsilon spent %.17g != sum of fresh answers %.17g",
                         after.epsilon_spent - base.epsilon_spent, run.fresh_epsilon));
  verdicts.ExpectEq(static_cast<uint64_t>(after.fact_rows),
                    static_cast<uint64_t>(base.fact_rows) + run.rows_ingested,
                    "Lineorder rows");
  for (const RequestRecord& rec : run.requests) model.Apply(workload.MakeOp(rec.op_index));
  verdicts.ExpectEq(after.plan_hits - base.plan_hits, model.counts.hits - warm_model.hits,
                    "plan hits");
  verdicts.ExpectEq(after.plan_misses - base.plan_misses,
                    model.counts.misses - warm_model.misses, "plan misses");
  verdicts.ExpectEq(after.plan_extends - base.plan_extends,
                    model.counts.extends - warm_model.extends, "plan extends");
  verdicts.ExpectEq(after.plan_evictions - base.plan_evictions,
                    model.counts.evictions - warm_model.evictions, "plan evictions");
  verdicts.ExpectEq(after.plan_invalidations, 0, "plan invalidations");
  // latency_p99_ms needs at least ten samples beyond the 99th percentile.
  const uint64_t n = run.requests.size();
  const uint64_t beyond_p99 =
      n == 0 ? 0 : n - 1 - static_cast<uint64_t>(std::floor(0.99 * static_cast<double>(n - 1)));
  verdicts.Expect(beyond_p99 >= 10,
                  Format("%llu timed requests leave %llu samples beyond p99, fewer than 10",
                         static_cast<unsigned long long>(n),
                         static_cast<unsigned long long>(beyond_p99)));
  stack->Stop();

  // ---- accuracy ------------------------------------------------------------
  const std::vector<Answer> sample =
      SampleAnswers(run.answers, kAccuracySamples);
  dpstarj::storage::Catalog* oracle = &stack->catalog();
  std::unique_ptr<dpstarj::storage::Catalog> regenerated;
  if (after.fact_rows != workload.base_fact_rows()) {
    stack.reset();
    auto catalog = GenerateCatalog(workload);
    if (!catalog.ok()) {
      std::fprintf(stderr, "perfbench: oracle: %s\n", catalog.status().ToString().c_str());
      return 1;
    }
    regenerated = std::move(*catalog);
    oracle = regenerated.get();
  }
  auto exact = ExactTotals(workload, oracle, sample);
  if (!exact.ok()) {
    std::fprintf(stderr, "perfbench: exact answers: %s\n", exact.status().ToString().c_str());
    return 1;
  }
  const std::vector<double> errors = RelativeErrorsPct(sample, *exact);

  for (const std::string& p : verdicts.problems) {
    std::fprintf(stderr, "perfbench: exact-count check failed: %s\n", p.c_str());
  }
  failed += verdicts.problems.size();

  std::vector<double> latency_ms;
  latency_ms.reserve(run.requests.size());
  for (const RequestRecord& rec : run.requests) latency_ms.push_back(rec.latency_ns * 1e-6);
  const double answered = static_cast<double>(run.queries_answered);
  std::vector<Metric> metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"qps", answered / run.elapsed_s, "queries/s"},
      {"latency_p50_ms", Quantile(latency_ms, 0.50), "ms"},
      {"latency_p99_ms", WindowedP99(latency_ms), "ms"},
      {"cpu_us_per_query", 1e6 * (run.process_cpu_s - run.client_cpu_s) / answered, "us"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"rel_error_p50_pct", Quantile(errors, 0.5), "%"},
      {"epsilon_per_answer",
       after.epsilon_spent / (answered + static_cast<double>(warm_answered)), "epsilon"},
  };
  std::printf("# timed: %llu ops (%llu requests, %llu beyond p99) in %.3f s, %llu queries "
              "answered, %llu ingests, %llu retries on 429\n",
              static_cast<unsigned long long>(run.ops),
              static_cast<unsigned long long>(run.requests.size()),
              static_cast<unsigned long long>(beyond_p99), run.elapsed_s,
              static_cast<unsigned long long>(run.queries_answered),
              static_cast<unsigned long long>(run.ingests),
              static_cast<unsigned long long>(run.retries_429));
  std::printf("# latency: p99 %.4f ms over the whole run, %.4f ms as the median of windows\n",
              Quantile(latency_ms, 0.99), WindowedP99(latency_ms));
  std::printf("# counts after the run: %s\n", after.ToString().c_str());
  std::printf("# accuracy: %zu releases priced, %zu with a non-empty exact answer\n",
              sample.size(), errors.size());
  const bool correct = PrintResult(failed == 0, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
