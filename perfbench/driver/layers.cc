// The traced run (`--trace 1`): prices the workload's requests layer by
// layer. No tracing is added to the library: every span is the benchmark's
// own steady_clock timing around one call into a layer's public API. Each
// pass runs on its own stack (one at a time, so memory stays one stack's),
// warmed to the same state, so no pass replays another pass's answers:
//
//   untraced  HTTP closed loop without spans, bounded to a quarter of the
//             run: its qps is what obs.trace_overhead_pct compares against,
//             and its op count N is what every later pass replays
//   net       ops 0..N-1 over HTTP, one span per request, plus the server's
//             stage histograms from GET /v1/trace/stats
//   service   the same ops straight into QueryService (Submit,
//             SubmitWorkload, Ingest), one obs::Trace per request
//   core      warm-up and timed ops through Binder, CanonicalEpochKey,
//             PlanCache, PredicateMechanism and StarJoinExecutor, starting
//             from a cold plan cache so every workload prices compiles; then
//             AnswerBatch over the single queries 16 at a time (batch_ingest
//             uses its own batches) and three probe ingests through
//             QueryService::Ingest that extend every cached plan
//
// A layer's self time is its span minus the spans of the layers below it
// for the same request. Spans go to <out-dir>/spans_<workload>.jsonl, the
// layer table to <out-dir>/layers_<workload>.json.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "core/predicate_mechanism.h"
#include "exec/plan_cache.h"
#include "exec/star_join_executor.h"
#include "net/json.h"
#include "query/binder.h"
#include "query/canonical.h"
#include "report.h"
#include "runner.h"
#include "ssb/ssb_schema.h"
#include "stack.h"
#include "util.h"

namespace perfbench {

namespace {

using dpstarj::Format;
using dpstarj::Result;
using dpstarj::Status;
using dpstarj::net::Json;
using dpstarj::obs::Stage;

/// Ops every pass replays at most (bounds the spans file and the run time).
constexpr uint64_t kMaxTracedOps = 4000;
constexpr size_t kBatchSize = 16;
constexpr size_t kMaxProbeBatches = 4;
constexpr int kProbeIngests = 3;
/// IngestRows indices of the storage probe, clear of any workload's own.
constexpr uint64_t kProbeIngestBase = uint64_t{1} << 20;

/// One timed call into a layer. Spans of one request share `request` (the
/// op index); `query` is the position within the op, -1 for the whole op.
struct Span {
  const char* pass = "";
  uint64_t request = 0;
  int query = -1;
  const char* layer = "";
  const char* name = "";
  const char* parent = "";  ///< the calling layer, "" at the root
  uint64_t start_ns = 0;    ///< since the pass started
  uint64_t end_ns = 0;
};

double Us(uint64_t ns) { return 1e-3 * static_cast<double>(ns); }

/// Σ count and Σ seconds per server stage, from GET /v1/trace/stats.
using StageTotals = std::map<std::string, std::pair<double, double>>;

Result<StageTotals> ReadStageTotals(Stack& stack) {
  dpstarj::net::Client client(stack.server().host(), stack.server().port());
  DPSTARJ_ASSIGN_OR_RETURN(auto response, client.Get("/v1/trace/stats"));
  if (response.status != 200) {
    return Status::Internal(Format("GET /v1/trace/stats: HTTP %d", response.status));
  }
  DPSTARJ_ASSIGN_OR_RETURN(Json body, Json::Parse(response.body));
  const Json* stages = body.Find("stages");
  if (stages == nullptr || !stages->is_object()) {
    return Status::Internal("/v1/trace/stats lacks stages");
  }
  StageTotals totals;
  for (int s = 0; s < dpstarj::obs::kStageCount; ++s) {
    const char* name = dpstarj::obs::StageName(static_cast<Stage>(s));
    const Json* entry = stages->Find(name);
    if (entry == nullptr) continue;
    const Json* count = entry->Find("count");
    const Json* mean = entry->Find("mean_seconds");
    if (count == nullptr || !count->is_number() || mean == nullptr || !mean->is_number()) {
      return Status::Internal(Format("/v1/trace/stats stage %s malformed", name));
    }
    totals[name] = {count->AsNumber(), count->AsNumber() * mean->AsNumber()};
  }
  return totals;
}

/// What one ExactCounts snapshot must equal in another; each mismatch fails
/// the run.
void ExpectSameCounts(const ExactCounts& a, const ExactCounts& b, const char* what,
                      std::vector<std::string>* problems) {
  if (!(a == b)) {
    problems->push_back(
        Format("%s: %s vs %s", what, a.ToString().c_str(), b.ToString().c_str()));
  }
}

/// Per-op results of the service pass.
struct ServiceOp {
  uint64_t span_ns = 0;
  uint64_t admission_ns = 0, ledger_ns = 0, queue_ns = 0, lookup_ns = 0;
  bool is_ingest = false;
};

/// Runs ops [0, n) straight into the stack's QueryService over `connections`
/// threads, checking each outcome against the workload model.
std::vector<ServiceOp> ServicePass(const Workload& workload, Stack& stack, uint64_t n,
                                   std::vector<Span>* spans,
                                   std::vector<std::string>* problems) {
  std::vector<ServiceOp> out(n);
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  const auto t0 = Clock::now();
  auto& service = stack.service();
  std::vector<std::thread> threads;
  for (int c = 0; c < workload.config().connections; ++c) {
    threads.emplace_back([&] {
      std::vector<Span> local;
      std::vector<std::string> local_problems;
      for (uint64_t i; (i = next.fetch_add(1)) < n;) {
        const Op op = workload.MakeOp(i);
        dpstarj::obs::Trace trace;
        std::string error;
        const auto start = Clock::now();
        switch (op.kind) {
          case OpKind::kQuery: {
            const QuerySpec& q = op.queries[0];
            auto r = service.Submit(q.sql, q.epsilon, kTenant, &trace).get();
            if (!r.ok()) {
              error = r.status().ToString();
            } else if (trace.answer_cache_hit) {
              error = "answer replayed from the answer cache";
            }
            break;
          }
          case OpKind::kWorkload: {
            std::vector<dpstarj::service::WorkloadQuerySpec> specs;
            for (const QuerySpec& q : op.queries) specs.push_back({q.sql, q.epsilon});
            auto r = service.SubmitWorkload(specs, kTenant, &trace).get();
            if (!r.ok()) {
              error = r.status().ToString();
              break;
            }
            for (size_t k = 0; k < r->queries.size(); ++k) {
              if (!r->queries[k].status.ok() || r->queries[k].cached) {
                error = Format("workload query %zu: %s", k,
                               r->queries[k].status.ToString().c_str());
              }
            }
            break;
          }
          case OpKind::kIngest: {
            auto r = service.Ingest(dpstarj::ssb::kLineorder, op.rows, &trace);
            if (!r.ok()) {
              error = r.status().ToString();
            } else if (r->rows_total != op.expected_rows_total ||
                       r->version != op.expected_epoch) {
              error = "ingest receipt differs from the model";
            }
            break;
          }
        }
        const auto end = Clock::now();
        ServiceOp& s = out[i];
        s.span_ns = NanosBetween(start, end);
        s.admission_ns = trace.stage_ns(Stage::kAdmission);
        s.ledger_ns = trace.stage_ns(Stage::kLedgerSpend);
        s.queue_ns = trace.stage_ns(Stage::kQueueWait);
        s.lookup_ns = trace.stage_ns(Stage::kCacheLookup);
        s.is_ingest = op.kind == OpKind::kIngest;
        local.push_back({"service", i, -1, "service",
                         op.kind == OpKind::kIngest ? "ingest" : "submit", "net",
                         NanosBetween(t0, start), NanosBetween(t0, end)});
        if (!error.empty()) {
          local_problems.push_back(Format("service pass op %llu: %s",
                                          static_cast<unsigned long long>(i),
                                          error.c_str()));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      spans->insert(spans->end(), local.begin(), local.end());
      problems->insert(problems->end(), local_problems.begin(), local_problems.end());
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

/// Samples of the core pass (query, core, exec and storage layers).
struct CoreSamples {
  std::vector<double> bind_us, canonical_us, compile_ms, extend_ms;
  std::vector<double> core_self_us, noise_us, bitmap_us, scan_us;
  std::vector<double> warm_ns_per_row, task_clock_ns_per_row, batch_us_per_query;
  double ingest_ns = 0.0, ingest_rows = 0.0;
  dpstarj::exec::WorkloadExecStats batch_stats;
  /// Timed op i → Σ bind + Σ PredicateMechanism time of its queries: the
  /// layers below the service for that request.
  std::vector<uint64_t> below_service_ns;
  dpstarj::exec::PlanCache::Stats plan_stats;  ///< after warm-up + timed ops
  uint64_t ops = 0;
};

class CorePass {
 public:
  CorePass(const Workload& workload, Stack& stack, std::vector<Span>* spans,
           std::vector<std::string>* problems)
      : workload_(workload),
        stack_(stack),
        spans_(spans),
        problems_(problems),
        plans_(std::make_shared<dpstarj::exec::PlanCache>()),
        mechanism_({}, ExecOptions(), plans_),
        executor_(ExecOptions()),
        binder_(&stack.catalog()),
        t0_(Clock::now()) {}

  CoreSamples Run(uint64_t n) {
    out_.below_service_ns.assign(n, 0);
    for (const Op& op : workload_.WarmupOps()) RunOp(op, false);
    for (uint64_t i = 0; i < n; ++i) RunOp(workload_.MakeOp(i), true);
    out_.plan_stats = plans_->GetStats();
    BatchProbe();
    StorageProbe();
    return std::move(out_);
  }

 private:
  static dpstarj::exec::ExecutorOptions ExecOptions() {
    dpstarj::exec::ExecutorOptions options;
    options.exec_threads = 1;  // as each service engine runs
    return options;
  }

  void AddSpan(uint64_t request, int query, const char* layer, const char* name,
               const char* parent, Clock::time_point start, Clock::time_point end) {
    spans_->push_back({"core", request, query, layer, name, parent,
                       NanosBetween(t0_, start), NanosBetween(t0_, end)});
  }

  void Problem(uint64_t request, const std::string& what) {
    problems_->push_back(Format("core pass op %llu: %s",
                                static_cast<unsigned long long>(request), what.c_str()));
  }

  void Ingest(uint64_t request, const std::vector<std::vector<dpstarj::storage::Value>>& rows) {
    const auto start = Clock::now();
    auto r = stack_.service().Ingest(dpstarj::ssb::kLineorder, rows);
    const auto end = Clock::now();
    AddSpan(request, -1, "storage", "ingest", "service", start, end);
    if (!r.ok()) return Problem(request, r.status().ToString());
    out_.ingest_ns += static_cast<double>(NanosBetween(start, end));
    out_.ingest_rows += static_cast<double>(rows.size());
  }

  /// PlanCache::GetOrCompile, classified by what it did.
  Result<std::shared_ptr<const dpstarj::exec::ScanPlan>> Plan(
      uint64_t request, int query, const dpstarj::query::BoundQuery& bound) {
    const auto before = plans_->GetStats();
    const auto start = Clock::now();
    auto plan = plans_->GetOrCompile(bound);
    const auto end = Clock::now();
    const auto after = plans_->GetStats();
    const double ms = 1e-6 * static_cast<double>(NanosBetween(start, end));
    const char* name = "plan_hit";
    if (after.misses > before.misses) {
      name = "plan_compile";
      out_.compile_ms.push_back(ms);
    } else if (after.extends > before.extends) {
      name = "plan_extend";
      out_.extend_ms.push_back(ms);
    }
    AddSpan(request, query, "exec", name, "core", start, end);
    return plan;
  }

  void RunOp(const Op& op, bool timed) {
    ++out_.ops;
    if (op.kind == OpKind::kIngest) return Ingest(op.index, op.rows);
    uint64_t below_ns = 0;
    std::vector<dpstarj::query::BoundQuery> bound;
    for (size_t k = 0; k < op.queries.size(); ++k) {
      const QuerySpec& q = op.queries[k];
      const int query = static_cast<int>(k);
      const auto start = Clock::now();
      auto b = binder_.BindSql(q.sql);
      const auto bound_at = Clock::now();
      if (!b.ok()) return Problem(op.index, b.status().ToString());
      const std::string key = dpstarj::query::CanonicalEpochKey(*b, q.epsilon);
      const auto keyed_at = Clock::now();
      AddSpan(op.index, query, "query", "bind", "service", start, bound_at);
      AddSpan(op.index, query, "query", "canonical", "service", bound_at, keyed_at);
      out_.bind_us.push_back(Us(NanosBetween(start, bound_at)));
      out_.canonical_us.push_back(Us(NanosBetween(bound_at, keyed_at)));
      below_ns += NanosBetween(start, bound_at);
      bound.push_back(std::move(*b));
    }
    for (size_t k = 0; k < bound.size(); ++k) {
      if (!Plan(op.index, static_cast<int>(k), bound[k]).ok()) {
        return Problem(op.index, "plan compile failed");
      }
    }
    if (op.kind == OpKind::kWorkload) {
      std::vector<dpstarj::core::BatchQueryRef> batch;
      for (size_t k = 0; k < bound.size(); ++k) {
        batch.push_back({&bound[k], op.queries[k].epsilon});
      }
      below_ns += AnswerBatch(op.index, batch);
    }
    for (size_t k = 0; k < bound.size(); ++k) {
      const uint64_t answer_ns = AnswerOne(op.index, static_cast<int>(k), bound[k],
                                           op.queries[k].epsilon);
      // A single query's request runs PredicateMechanism::Answer; a batch's
      // ran AnswerBatch above, and these singles only price its queries.
      if (op.kind == OpKind::kQuery) below_ns += answer_ns;
    }
    if (op.kind == OpKind::kQuery && out_.probe.size() < kMaxProbeBatches * kBatchSize) {
      out_.probe.push_back({std::move(bound[0]), op.queries[0].epsilon});
    }
    if (timed) out_.below_service_ns[op.index] = below_ns;
  }

  /// PredicateMechanism::Answer, then StarJoinExecutor::Execute on the same
  /// noise draw and plan; returns the Answer span.
  uint64_t AnswerOne(uint64_t request, int query, const dpstarj::query::BoundQuery& bound,
                     double epsilon) {
    const uint64_t rng_seed = Mix64(workload_.seed() ^ 0xc0, request * 64 + query);
    dpstarj::Rng rng(rng_seed);
    dpstarj::obs::Trace trace;
    const auto start = Clock::now();
    auto answer = mechanism_.Answer(bound, epsilon, &rng, &trace);
    const auto end = Clock::now();
    AddSpan(request, query, "core", "answer", "service", start, end);
    if (!answer.ok()) {
      Problem(request, answer.status().ToString());
      return NanosBetween(start, end);
    }
    dpstarj::Rng replay(rng_seed);
    auto overrides = mechanism_.PerturbPredicates(bound, epsilon, &replay);
    auto plan = plans_->GetOrCompile(bound);
    if (!overrides.ok() || !plan.ok()) {
      Problem(request, "cannot replay the noise draw or plan");
      return NanosBetween(start, end);
    }
    const double cpu0 = ThreadCpuSeconds();
    const auto exec_start = Clock::now();
    auto executed = executor_.Execute(bound, *overrides, **plan);
    const auto exec_end = Clock::now();
    const double cpu_ns = 1e9 * (ThreadCpuSeconds() - cpu0);
    AddSpan(request, query, "exec", "execute", "core", exec_start, exec_end);
    if (!executed.ok() || executed->Total() != answer->Total()) {
      Problem(request, "Execute on the same overrides disagrees with Answer");
    }
    const double rows = static_cast<double>((*plan)->fact_rows());
    const uint64_t answer_ns = NanosBetween(start, end);
    const uint64_t exec_ns = NanosBetween(exec_start, exec_end);
    out_.core_self_us.push_back(Us(answer_ns) - Us(exec_ns));
    out_.noise_us.push_back(Us(trace.stage_ns(Stage::kNoiseDraw)));
    out_.bitmap_us.push_back(Us(trace.stage_ns(Stage::kBitmapRebuild)));
    out_.scan_us.push_back(Us(trace.stage_ns(Stage::kScan)));
    out_.warm_ns_per_row.push_back(static_cast<double>(exec_ns) / rows);
    out_.task_clock_ns_per_row.push_back(cpu_ns / rows);
    return answer_ns;
  }

  /// PredicateMechanism::AnswerBatch over `batch`; returns its span.
  uint64_t AnswerBatch(uint64_t request, const std::vector<dpstarj::core::BatchQueryRef>& batch) {
    dpstarj::Rng rng(Mix64(workload_.seed() ^ 0xba, request));
    const auto start = Clock::now();
    auto results = mechanism_.AnswerBatch(batch, &rng, nullptr, &out_.batch_stats);
    const auto end = Clock::now();
    AddSpan(request, -1, "core", "answer_batch", "service", start, end);
    for (const auto& r : results) {
      if (!r.ok()) Problem(request, r.status().ToString());
    }
    out_.batch_us_per_query.push_back(Us(NanosBetween(start, end)) /
                                      static_cast<double>(batch.size()));
    return NanosBetween(start, end);
  }

  /// Workloads without batches of their own: the pass's single queries
  /// through AnswerBatch, 16 at a time, their plans fetched first.
  void BatchProbe() {
    for (size_t b = 0; b + kBatchSize <= out_.probe.size(); b += kBatchSize) {
      std::vector<dpstarj::core::BatchQueryRef> batch;
      for (size_t k = b; k < b + kBatchSize; ++k) {
        plans_->GetOrCompile(out_.probe[k].first);
        batch.push_back({&out_.probe[k].first, out_.probe[k].second});
      }
      AnswerBatch(kProbeIngestBase + b, batch);
    }
  }

  /// Ingests through QueryService::Ingest, each followed by a fetch of the
  /// plans of the last 16 probe queries, which the batch probe left cached
  /// (extends).
  void StorageProbe() {
    std::map<std::string, const dpstarj::query::BoundQuery*> distinct;
    const size_t from = out_.probe.size() - std::min(out_.probe.size(), kBatchSize);
    for (size_t k = from; k < out_.probe.size(); ++k) {
      distinct.emplace(dpstarj::query::CanonicalKey(out_.probe[k].first),
                       &out_.probe[k].first);
    }
    for (int j = 0; j < kProbeIngests; ++j) {
      const uint64_t request = kProbeIngestBase + static_cast<uint64_t>(j);
      Ingest(request, workload_.IngestRows(request));
      int query = 0;
      for (const auto& [key, bound] : distinct) {
        if (!Plan(request, query++, *bound).ok()) Problem(request, "plan extend failed");
      }
    }
  }

  struct Out : CoreSamples {
    /// Fresh single queries kept for the batch and storage probes.
    std::vector<std::pair<dpstarj::query::BoundQuery, double>> probe;
  };

  const Workload& workload_;
  Stack& stack_;
  std::vector<Span>* spans_;
  std::vector<std::string>* problems_;
  std::shared_ptr<dpstarj::exec::PlanCache> plans_;
  dpstarj::core::PredicateMechanism mechanism_;
  dpstarj::exec::StarJoinExecutor executor_;
  dpstarj::query::Binder binder_;
  Clock::time_point t0_;
  Out out_;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string SpansJsonl(const std::vector<Span>& spans) {
  std::string out;
  for (const Span& s : spans) {
    Json j = Json::Object();
    j.Set("pass", Json::Str(s.pass));
    j.Set("request", Json::Number(static_cast<double>(s.request)));
    j.Set("query", Json::Number(s.query));
    j.Set("layer", Json::Str(s.layer));
    j.Set("name", Json::Str(s.name));
    j.Set("parent", Json::Str(s.parent));
    j.Set("start_ns", Json::Number(static_cast<double>(s.start_ns)));
    j.Set("end_ns", Json::Number(static_cast<double>(s.end_ns)));
    out += j.Dump();
    out += '\n';
  }
  return out;
}

/// Starts a stack and sends the workload's warm-up; counts into the run's
/// attempted/failed totals.
Result<std::unique_ptr<Stack>> WarmStack(const Workload& workload, uint64_t* attempted,
                                         uint64_t* failed) {
  DPSTARJ_ASSIGN_OR_RETURN(auto stack, Stack::Start(workload));
  LoopResult warm = RunWarmup(workload, *stack);
  *attempted += warm.ops;
  *failed += warm.failed;
  ReportErrors(warm, "warm-up");
  return stack;
}

}  // namespace

int RunTraced(const Workload& workload, double seconds, const std::string& out_dir) {
  const WorkloadConfig& config = workload.config();
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  std::vector<Span> spans;
  auto fail_setup = [](const Status& s) {
    std::fprintf(stderr, "perfbench: traced setup: %s\n", s.ToString().c_str());
    return 1;
  };

  // ---- untraced: the reference qps and the op count N ----------------------
  uint64_t n = 0;
  double qps_untraced = 0.0;
  ExactCounts counts_untraced;
  {
    auto stack = WarmStack(workload, &attempted, &failed);
    if (!stack.ok()) return fail_setup(stack.status());
    LoopOptions options;
    options.connections = config.connections;
    options.seconds = seconds / 4.0;
    LoopResult run = RunClosedLoop(workload, **stack, options);
    attempted += run.ops;
    failed += run.failed;
    ReportErrors(run, "untraced");
    n = std::min<uint64_t>(run.ops, kMaxTracedOps);
    if (n < run.ops) {
      // Re-run exactly N ops so the passes below replay what it answered.
      stack = WarmStack(workload, &attempted, &failed);
      if (!stack.ok()) return fail_setup(stack.status());
      options.op_limit = n;
      run = RunClosedLoop(workload, **stack, options);
      attempted += run.ops;
      failed += run.failed;
      ReportErrors(run, "untraced");
    }
    qps_untraced = static_cast<double>(run.queries_answered) / run.elapsed_s;
    counts_untraced = ReadCounts(**stack);
  }

  // ---- net: the same ops over HTTP, with spans and server stages -----------
  double qps_traced = 0.0;
  std::vector<RequestRecord> net;
  StageTotals stages;
  ExactCounts counts_net;
  uint64_t retries_429 = 0;
  {
    auto stack = WarmStack(workload, &attempted, &failed);
    if (!stack.ok()) return fail_setup(stack.status());
    auto before = ReadStageTotals(**stack);
    if (!before.ok()) return fail_setup(before.status());
    LoopOptions options;
    options.connections = config.connections;
    options.op_limit = n;
    LoopResult run = RunClosedLoop(workload, **stack, options);
    attempted += run.ops;
    failed += run.failed;
    ReportErrors(run, "net pass");
    auto after = ReadStageTotals(**stack);
    if (!after.ok()) return fail_setup(after.status());
    for (const auto& [name, total] : *after) {
      const auto it = before->find(name);
      const std::pair<double, double> base =
          it == before->end() ? std::pair<double, double>{0.0, 0.0} : it->second;
      stages[name] = {total.first - base.first, total.second - base.second};
    }
    qps_traced = static_cast<double>(run.queries_answered) / run.elapsed_s;
    retries_429 = run.retries_429;
    net = std::move(run.requests);
    for (const RequestRecord& r : net) {
      spans.push_back({"net", r.op_index, -1, "net", "http", "", r.start_ns,
                       r.start_ns + r.latency_ns});
    }
    counts_net = ReadCounts(**stack);
  }

  // ---- service: the same ops straight into QueryService --------------------
  std::vector<ServiceOp> service_ops;
  ExactCounts counts_service_base, counts_service;
  size_t plan_bytes = 0;
  {
    auto stack = WarmStack(workload, &attempted, &failed);
    if (!stack.ok()) return fail_setup(stack.status());
    counts_service_base = ReadCounts(**stack);
    service_ops = ServicePass(workload, **stack, n, &spans, &problems);
    attempted += n;
    counts_service = ReadCounts(**stack);
    plan_bytes = (*stack)->service().plan_cache().bytes();
  }

  // ---- core: query, core, exec and storage layers --------------------------
  CoreSamples core;
  {
    auto stack = Stack::Start(workload);
    if (!stack.ok()) return fail_setup(stack.status());
    core = CorePass(workload, **stack, &spans, &problems).Run(n);
    attempted += core.ops;
  }

  // ---- exact counts: every pass replayed the same ops from the same state --
  ExpectSameCounts(counts_net, counts_untraced, "net pass vs untraced counts", &problems);
  ExpectSameCounts(counts_service, counts_net, "service pass vs net pass counts",
                   &problems);
  if (core.plan_stats.misses != counts_service.plan_misses ||
      core.plan_stats.extends != counts_service.plan_extends ||
      core.plan_stats.evictions != counts_service.plan_evictions) {
    problems.push_back(Format(
        "core pass plan misses/extends/evictions %llu/%llu/%llu, service %llu/%llu/%llu",
        static_cast<unsigned long long>(core.plan_stats.misses),
        static_cast<unsigned long long>(core.plan_stats.extends),
        static_cast<unsigned long long>(core.plan_stats.evictions),
        static_cast<unsigned long long>(counts_service.plan_misses),
        static_cast<unsigned long long>(counts_service.plan_extends),
        static_cast<unsigned long long>(counts_service.plan_evictions)));
  }

  // ---- per-request self times ----------------------------------------------
  std::vector<double> net_self_us, service_self_us, request_bytes, response_bytes;
  std::vector<double> admission_us, ledger_us, queue_us, lookup_us, latency_us;
  for (const RequestRecord& r : net) {
    if (r.op_index >= n) continue;
    const ServiceOp& s = service_ops[r.op_index];
    latency_us.push_back(Us(r.latency_ns));
    net_self_us.push_back(Us(r.latency_ns) - Us(s.span_ns));
    request_bytes.push_back(static_cast<double>(r.request_bytes));
    response_bytes.push_back(static_cast<double>(r.response_bytes));
  }
  for (uint64_t i = 0; i < n; ++i) {
    const ServiceOp& s = service_ops[i];
    if (s.is_ingest) continue;
    service_self_us.push_back(Us(s.span_ns) - Us(core.below_service_ns[i]));
    admission_us.push_back(Us(s.admission_ns));
    ledger_us.push_back(Us(s.ledger_ns));
    queue_us.push_back(Us(s.queue_ns));
    lookup_us.push_back(Us(s.lookup_ns));
  }
  auto stage_mean_us = [&](Stage stage) {
    const auto it = stages.find(dpstarj::obs::StageName(stage));
    if (it == stages.end() || it->second.first == 0.0) return 0.0;
    return 1e6 * it->second.second / it->second.first;
  };
  double staged_s = 0.0;
  for (const auto& [name, total] : stages) staged_s += total.second;
  const double unattributed_us =
      Mean(latency_us) - 1e6 * staged_s / static_cast<double>(net.size());

  const uint64_t answer_hits = counts_service.answer_hits - counts_service_base.answer_hits;
  const uint64_t answer_lookups =
      counts_service.answer_lookups - counts_service_base.answer_lookups;
  const uint64_t plan_hits = counts_service.plan_hits - counts_service_base.plan_hits;
  const uint64_t plan_misses = counts_service.plan_misses - counts_service_base.plan_misses;
  auto count = [](uint64_t v) { return static_cast<double>(v); };

  std::vector<Metric> metrics = {
      {"net.self_us_p50", Quantile(net_self_us, 0.5), "us"},
      {"net.header_read_us_mean", stage_mean_us(Stage::kHeaderRead), "us"},
      {"net.encode_us_mean", stage_mean_us(Stage::kEncode), "us"},
      {"net.request_bytes_mean", Mean(request_bytes), "bytes"},
      {"net.response_bytes_mean", Mean(response_bytes), "bytes"},
      {"net.retries_429", count(retries_429), "count"},
      {"service.self_us_p50", Quantile(service_self_us, 0.5), "us"},
      {"service.admission_us_mean", Mean(admission_us), "us"},
      {"service.ledger_us_mean", Mean(ledger_us), "us"},
      {"service.cache_lookup_us_mean", Mean(lookup_us), "us"},
      {"service.queue_wait_us_mean", Mean(queue_us), "us"},
      {"service.queue_wait_us_p99", Quantile(queue_us, 0.99), "us"},
      {"service.answer_cache_hit_ratio", Ratio(count(answer_hits), count(answer_lookups)),
       "ratio"},
      {"service.answer_cache_hits", count(answer_hits), "count"},
      {"service.answer_cache_lookups", count(answer_lookups), "count"},
      {"service.epsilon_spent",
       counts_service.epsilon_spent - counts_service_base.epsilon_spent, "epsilon"},
      {"query.bind_us_p50", Quantile(core.bind_us, 0.5), "us"},
      {"query.canonical_us_p50", Quantile(core.canonical_us, 0.5), "us"},
      {"core.self_us_p50", Quantile(core.core_self_us, 0.5), "us"},
      {"core.noise_us_mean", Mean(core.noise_us), "us"},
      {"core.batch_us_per_query", Mean(core.batch_us_per_query), "us"},
      {"exec.compile_ms_p50", Quantile(core.compile_ms, 0.5), "ms"},
      {"exec.plan_hit_ratio", Ratio(count(plan_hits), count(plan_hits + plan_misses)),
       "ratio"},
      {"exec.plan_misses", count(plan_misses), "count"},
      {"exec.plan_evictions",
       count(counts_service.plan_evictions - counts_service_base.plan_evictions), "count"},
      {"exec.plan_extends",
       count(counts_service.plan_extends - counts_service_base.plan_extends), "count"},
      {"exec.plan_invalidations",
       count(counts_service.plan_invalidations - counts_service_base.plan_invalidations),
       "count"},
      {"exec.plan_bytes", count(plan_bytes), "bytes"},
      {"exec.extend_ms_mean", Mean(core.extend_ms), "ms"},
      {"exec.bitmap_us_mean", Mean(core.bitmap_us), "us"},
      {"exec.scan_us_mean", Mean(core.scan_us), "us"},
      {"exec.warm_ns_per_row", Quantile(core.warm_ns_per_row, 0.5), "ns"},
      {"exec.task_clock_ns_per_row", Quantile(core.task_clock_ns_per_row, 0.5), "ns"},
      {"exec.batch_scans_per_query",
       Ratio(static_cast<double>(core.batch_stats.scans),
             static_cast<double>(core.batch_stats.queries)),
       "ratio"},
      {"exec.bitmap_builds_per_query",
       Ratio(static_cast<double>(core.batch_stats.predicate_nodes),
             static_cast<double>(core.batch_stats.queries)),
       "ratio"},
      {"storage.ingest_us_per_row", 1e-3 * core.ingest_ns / core.ingest_rows, "us"},
      {"storage.fact_rows_end", static_cast<double>(counts_service.fact_rows), "rows"},
      {"obs.trace_overhead_pct", 100.0 * (qps_untraced - qps_traced) / qps_untraced, "%"},
      {"obs.unattributed_us_mean", unattributed_us, "us"},
  };

  // ---- the layer table and the spans ---------------------------------------
  Json table = Json::Object();
  table.Set("workload", Json::Str(config.name));
  table.Set("seed", Json::Number(static_cast<double>(workload.seed())));
  table.Set("ops_per_pass", Json::Number(static_cast<double>(n)));
  std::map<std::string, Json> by_layer;
  for (const Metric& m : metrics) {
    Json entry = Json::Object();
    entry.Set("value", Json::Number(std::isfinite(m.value) ? m.value : 0.0));
    entry.Set("unit", Json::Str(m.unit));
    by_layer.try_emplace(m.name.substr(0, m.name.find('.')), Json::Object())
        .first->second.Set(m.name, std::move(entry));
    std::printf("# layer %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Json layers = Json::Object();
  for (auto& [layer, entries] : by_layer) layers.Set(layer, std::move(entries));
  table.Set("layers", std::move(layers));
  Json server = Json::Object();
  for (const auto& [name, total] : stages) {
    if (total.first > 0.0) server.Set(name, Json::Number(1e6 * total.second / total.first));
  }
  table.Set("server_stage_us_mean", std::move(server));
  std::printf("# traced: %llu ops per pass, %zu spans\n", static_cast<unsigned long long>(n),
              spans.size());

  ::mkdir(out_dir.c_str(), 0755);  // may exist already
  const std::string spans_path = out_dir + "/spans_" + config.name + ".jsonl";
  const std::string table_path = out_dir + "/layers_" + config.name + ".json";
  if (!WriteFile(spans_path, SpansJsonl(spans)) ||
      !WriteFile(table_path, table.Dump() + "\n")) {
    problems.push_back("cannot write " + spans_path + " or " + table_path);
  }

  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: traced check failed: %s\n", p.c_str());
  }
  failed += problems.size();
  const bool correct = PrintResult(failed == 0, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
