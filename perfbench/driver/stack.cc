#include "stack.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "common/string_util.h"
#include "net/json.h"
#include "net/service_api.h"
#include "runner.h"
#include "ssb/ssb_schema.h"
#include "util.h"

namespace perfbench {

using dpstarj::Format;
using dpstarj::Result;
using dpstarj::Status;
using dpstarj::net::Json;

Result<std::unique_ptr<Stack>> Stack::Start(const Workload& workload) {
  std::unique_ptr<Stack> stack(new Stack());
  DPSTARJ_ASSIGN_OR_RETURN(stack->catalog_, GenerateCatalog(workload));
  stack->metrics_ = std::make_shared<dpstarj::obs::MetricsRegistry>();

  dpstarj::service::ServiceOptions options;
  options.num_engines = 2;
  options.exec_threads_per_engine = 1;
  options.engine.seed = Mix64(workload.seed(), 0xe9);
  options.metrics = stack->metrics_;
  stack->service_ = std::make_unique<dpstarj::service::QueryService>(
      stack->catalog_.get(), options);
  DPSTARJ_RETURN_NOT_OK(stack->service_->RegisterTenant(kTenant, kTenantBudget));

  dpstarj::net::ServerOptions server_options;  // loopback, ephemeral port
  server_options.handler_threads = 2;
  server_options.metrics = stack->metrics_.get();
  stack->server_ = std::make_unique<dpstarj::net::HttpServer>(
      dpstarj::net::MakeServiceRouter(stack->service_.get()), server_options);
  DPSTARJ_RETURN_NOT_OK(stack->server_->Start());
  return stack;
}

Stack::~Stack() { Stop(); }

void Stack::Stop() {
  if (server_ != nullptr) server_->Stop();
  if (service_ != nullptr) service_->Shutdown();
}

namespace {

// One answer body (a /v1/query response or a /v1/workload entry).
bool CheckAnswerBody(const Json& body, const QuerySpec& q, uint64_t epoch,
                     double* value, std::string* error) {
  const Json* grouped = body.Find("grouped");
  const Json* at = body.Find("epoch");
  if (grouped == nullptr || !grouped->is_bool() || at == nullptr || !at->is_number()) {
    *error = "answer lacks grouped/epoch";
    return false;
  }
  if (grouped->AsBool() != q.grouped) {
    *error = "grouped flag does not match the query";
    return false;
  }
  if (at->AsNumber() != static_cast<double>(epoch)) {
    *error = Format("answer at epoch %.0f, expected %llu", at->AsNumber(),
                    static_cast<unsigned long long>(epoch));
    return false;
  }
  const Json* v = body.Find(q.grouped ? "total" : "scalar");
  if (v == nullptr || !v->is_number() || !std::isfinite(v->AsNumber())) {
    *error = "answer lacks a finite value";
    return false;
  }
  if (q.grouped) {
    const Json* groups = body.Find("groups");
    if (groups == nullptr || !groups->is_array()) {
      *error = "grouped answer lacks groups";
      return false;
    }
    for (const Json& g : groups->items()) {
      const Json* key = g.Find("key");
      const Json* gv = g.Find("value");
      if (key == nullptr || !key->is_string() || gv == nullptr || !gv->is_number()) {
        *error = "malformed group entry";
        return false;
      }
    }
  }
  *value = v->AsNumber();
  return true;
}

}  // namespace

Checked CheckResponse(const Op& op, int status, const std::string& text) {
  Checked c;
  if (status != 200) {
    c.error = Format("HTTP %d on %s: %.200s", status, op.path.c_str(), text.c_str());
    return c;
  }
  auto parsed = Json::Parse(text);
  if (!parsed.ok() || !parsed->is_object()) {
    c.error = "response body is not a JSON object";
    return c;
  }
  const Json& body = *parsed;
  switch (op.kind) {
    case OpKind::kQuery: {
      const QuerySpec& q = op.queries[0];
      Answer a;
      a.op_index = op.index;
      a.epoch = op.expected_epoch;
      if (!CheckAnswerBody(body, q, op.expected_epoch, &a.value, &c.error)) return c;
      c.answers.push_back(a);
      c.fresh_epsilon += q.epsilon;
      break;
    }
    case OpKind::kWorkload: {
      const Json* entries = body.Find("queries");
      const Json* exec = body.Find("exec");
      if (entries == nullptr || !entries->is_array() ||
          entries->items().size() != op.queries.size() || exec == nullptr) {
        c.error = "workload response lacks per-query entries or exec receipts";
        return c;
      }
      for (size_t k = 0; k < op.queries.size(); ++k) {
        const Json& e = entries->items()[k];
        const Json* ok = e.Find("ok");
        const Json* cached = e.Find("cached");
        if (ok == nullptr || !ok->is_bool() || !ok->AsBool() || cached == nullptr ||
            !cached->is_bool()) {
          c.error = Format("workload query %zu failed: %.200s", k, e.Dump().c_str());
          return c;
        }
        if (cached->AsBool()) {
          c.error = Format("workload query %zu replayed from the answer cache", k);
          return c;
        }
        Answer a;
        a.op_index = op.index;
        a.query = static_cast<int>(k);
        a.epoch = op.expected_epoch;
        if (!CheckAnswerBody(e, op.queries[k], op.expected_epoch, &a.value, &c.error)) {
          return c;
        }
        c.answers.push_back(a);
        c.fresh_epsilon += op.queries[k].epsilon;
      }
      for (const char* name : {"queries", "scans", "predicate_nodes"}) {
        const Json* f = exec->Find(name);
        if (f == nullptr || !f->is_number() || f->AsNumber() < 0) {
          c.error = "workload exec receipts malformed";
          return c;
        }
      }
      break;
    }
    case OpKind::kIngest: {
      const Json* appended = body.Find("appended");
      const Json* total = body.Find("rows_total");
      const Json* version = body.Find("version");
      if (appended == nullptr || total == nullptr || version == nullptr ||
          appended->AsNumber() != static_cast<double>(op.rows.size()) ||
          total->AsNumber() != static_cast<double>(op.expected_rows_total) ||
          version->AsNumber() != static_cast<double>(op.expected_epoch)) {
        c.error = Format("ingest receipt %s, expected %zu rows → %lld total at v%llu",
                         text.c_str(), op.rows.size(),
                         static_cast<long long>(op.expected_rows_total),
                         static_cast<unsigned long long>(op.expected_epoch));
        return c;
      }
      break;
    }
  }
  c.ok = true;
  return c;
}

Result<dpstarj::net::HttpResponse> SendOp(dpstarj::net::Client* client, const Op& op,
                                          uint64_t* latency_ns, uint64_t* retries) {
  for (int attempt = 0;; ++attempt) {
    const auto start = Clock::now();
    auto r = client->Post(op.path, op.body);
    const auto end = Clock::now();
    if (!r.ok()) return r.status();
    if (r->status == 429 && attempt < 1000) {
      // Backoff outside the timed span: only the attempt that is answered
      // counts toward latency.
      ++*retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    *latency_ns = NanosBetween(start, end);
    return r;
  }
}

bool ExactCounts::operator==(const ExactCounts& o) const {
  return answer_hits == o.answer_hits && answer_lookups == o.answer_lookups &&
         plan_hits == o.plan_hits && plan_misses == o.plan_misses &&
         plan_extends == o.plan_extends && plan_evictions == o.plan_evictions &&
         plan_invalidations == o.plan_invalidations &&
         epsilon_spent == o.epsilon_spent && fact_rows == o.fact_rows;
}

std::string ExactCounts::ToString() const {
  return Format(
      "answer hits %llu/%llu lookups, plan hits %llu misses %llu extends %llu "
      "evictions %llu invalidations %llu, epsilon spent %.17g, Lineorder rows %lld",
      static_cast<unsigned long long>(answer_hits),
      static_cast<unsigned long long>(answer_lookups),
      static_cast<unsigned long long>(plan_hits),
      static_cast<unsigned long long>(plan_misses),
      static_cast<unsigned long long>(plan_extends),
      static_cast<unsigned long long>(plan_evictions),
      static_cast<unsigned long long>(plan_invalidations), epsilon_spent,
      static_cast<long long>(fact_rows));
}

ExactCounts ReadCounts(Stack& stack) {
  const dpstarj::service::ServiceStats stats = stack.service().Stats();
  ExactCounts c;
  c.answer_hits = stats.cache.hits;
  c.answer_lookups = stats.cache.hits + stats.cache.misses;
  c.plan_hits = stats.plan_cache.hits;
  c.plan_misses = stats.plan_cache.misses;
  c.plan_extends = stats.plan_cache.extends;
  c.plan_evictions = stats.plan_cache.evictions;
  c.plan_invalidations = stats.plan_cache.invalidations;
  auto account = stack.service().ledger().Account(kTenant);
  c.epsilon_spent = account.ok() ? account->spent : -1.0;
  auto fact = stack.catalog().GetTable(dpstarj::ssb::kLineorder);
  c.fact_rows = fact.ok() ? (*fact)->num_rows() : -1;
  return c;
}

}  // namespace perfbench
