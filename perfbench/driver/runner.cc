#include "runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/string_util.h"
#include "exec/plan_cache.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_schema.h"
#include "util.h"

namespace perfbench {

using dpstarj::Result;
using dpstarj::Status;

namespace {

constexpr size_t kMaxErrors = 8;

// Sends `op`, checks the response, and folds it into `out`.
void RunOneOp(dpstarj::net::Client* client, const Op& op, Clock::time_point t0,
              LoopResult* out) {
  ++out->ops;
  uint64_t latency_ns = 0;
  const auto sent = Clock::now();
  auto response = SendOp(client, op, &latency_ns, &out->retries_429);
  Checked checked;
  if (!response.ok()) {
    checked.error = response.status().ToString();
  } else {
    checked = CheckResponse(op, response->status, response->body);
    RequestRecord rec;
    rec.op_index = op.index;
    rec.start_ns = NanosBetween(t0, sent);
    rec.latency_ns = latency_ns;
    rec.request_bytes = op.body.size();
    rec.response_bytes = response->body.size();
    out->requests.push_back(rec);
  }
  if (!checked.ok) {
    ++out->failed;
    if (out->errors.size() < kMaxErrors) {
      out->errors.push_back(dpstarj::Format("op %llu: %s",
                                            static_cast<unsigned long long>(op.index),
                                            checked.error.c_str()));
    }
    return;
  }
  out->queries_answered += checked.answers.size();
  if (op.kind == OpKind::kIngest) {
    ++out->ingests;
    out->rows_ingested += op.rows.size();
  }
  out->fresh_epsilon += checked.fresh_epsilon;
  for (Answer& a : checked.answers) out->answers.push_back(a);
}

void Merge(LoopResult&& part, LoopResult* out) {
  out->ops += part.ops;
  out->failed += part.failed;
  out->queries_answered += part.queries_answered;
  out->retries_429 += part.retries_429;
  out->ingests += part.ingests;
  out->rows_ingested += part.rows_ingested;
  out->fresh_epsilon += part.fresh_epsilon;
  out->client_cpu_s += part.client_cpu_s;
  out->requests.insert(out->requests.end(), part.requests.begin(), part.requests.end());
  out->answers.insert(out->answers.end(), part.answers.begin(), part.answers.end());
  for (auto& e : part.errors) {
    if (out->errors.size() < kMaxErrors) out->errors.push_back(std::move(e));
  }
}

void SortRecords(LoopResult* r) {
  std::sort(r->requests.begin(), r->requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.op_index < b.op_index;
            });
  std::sort(r->answers.begin(), r->answers.end(), [](const Answer& a, const Answer& b) {
    return a.op_index != b.op_index ? a.op_index < b.op_index : a.query < b.query;
  });
}

}  // namespace

LoopResult RunClosedLoop(const Workload& workload, Stack& stack,
                         const LoopOptions& options) {
  LoopResult result;
  std::atomic<uint64_t> next{0};
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(options.seconds));
  const double cpu0 = ProcessCpuSeconds();
  std::vector<std::thread> clients;
  for (int c = 0; c < options.connections; ++c) {
    clients.emplace_back([&] {
      LoopResult part;
      const double thread_cpu0 = ThreadCpuSeconds();
      dpstarj::net::Client client(stack.server().host(), stack.server().port());
      for (;;) {
        if (options.op_limit == 0 && Clock::now() >= deadline) break;
        const uint64_t i = next.fetch_add(1);
        if (options.op_limit != 0 && i >= options.op_limit) break;
        const Op op = workload.MakeOp(i);
        RunOneOp(&client, op, t0, &part);
      }
      part.client_cpu_s = ThreadCpuSeconds() - thread_cpu0;
      std::lock_guard<std::mutex> lock(mu);
      Merge(std::move(part), &result);
    });
  }
  for (auto& t : clients) t.join();
  result.elapsed_s = SecondsBetween(t0, Clock::now());
  result.process_cpu_s = ProcessCpuSeconds() - cpu0;
  SortRecords(&result);
  return result;
}

LoopResult RunWarmup(const Workload& workload, Stack& stack) {
  LoopResult result;
  const auto t0 = Clock::now();
  dpstarj::net::Client client(stack.server().host(), stack.server().port());
  for (const Op& op : workload.WarmupOps()) RunOneOp(&client, op, t0, &result);
  result.elapsed_s = SecondsBetween(t0, Clock::now());
  return result;
}

void ReportErrors(const LoopResult& r, const char* phase) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s: %s\n", phase, e.c_str());
  }
}

Result<std::unique_ptr<dpstarj::storage::Catalog>> GenerateCatalog(
    const Workload& workload) {
  // One dataset per scale factor, whatever the seed: the seed varies the
  // requests and the noise, so runs with different seeds price the same
  // data (a seeded catalog moved rel_error_p50_pct by half between seeds).
  dpstarj::ssb::SsbOptions ssb;
  ssb.scale_factor = workload.config().scale_factor;
  DPSTARJ_ASSIGN_OR_RETURN(dpstarj::storage::Catalog catalog,
                           dpstarj::ssb::GenerateSsb(ssb));
  return std::make_unique<dpstarj::storage::Catalog>(std::move(catalog));
}

std::vector<Answer> SampleAnswers(const std::vector<Answer>& answers, size_t n) {
  if (answers.size() <= n) return answers;
  std::vector<Answer> sample;
  sample.reserve(n);
  for (size_t k = 0; k < n; ++k) sample.push_back(answers[k * answers.size() / n]);
  return sample;
}

Result<std::vector<double>> ExactTotals(const Workload& workload,
                                        dpstarj::storage::Catalog* catalog,
                                        const std::vector<Answer>& answers) {
  // Evaluate in epoch order, replaying ingest n (→ version n + 1) onto the
  // catalog between epochs.
  std::vector<size_t> order(answers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return answers[a].epoch < answers[b].epoch;
  });
  DPSTARJ_ASSIGN_OR_RETURN(auto fact, catalog->GetTable(dpstarj::ssb::kLineorder));
  dpstarj::query::Binder binder(catalog);
  dpstarj::exec::PlanCache plans;
  dpstarj::exec::StarJoinExecutor executor;
  std::vector<double> exact(answers.size(), 0.0);
  std::map<uint64_t, Op> ops;  // regenerated ops by index, warm-up ops first
  for (Op& op : workload.WarmupOps()) ops.emplace(op.index, std::move(op));
  for (size_t i : order) {
    const Answer& a = answers[i];
    while (fact->version() < a.epoch) {
      for (const auto& row : workload.IngestRows(fact->version())) {
        DPSTARJ_RETURN_NOT_OK(fact->AppendRow(row));
      }
      fact->BumpVersion();
    }
    auto it = ops.find(a.op_index);
    if (it == ops.end()) it = ops.emplace(a.op_index, workload.MakeOp(a.op_index)).first;
    const QuerySpec& q = it->second.queries[static_cast<size_t>(a.query)];
    DPSTARJ_ASSIGN_OR_RETURN(auto bound, binder.BindSql(q.sql));
    DPSTARJ_ASSIGN_OR_RETURN(auto plan, plans.GetOrCompile(bound));
    DPSTARJ_ASSIGN_OR_RETURN(
        auto truth,
        executor.Execute(bound, dpstarj::exec::PredicateOverrides(bound.dims.size()), *plan));
    exact[i] = truth.Total();
  }
  return exact;
}

}  // namespace perfbench
