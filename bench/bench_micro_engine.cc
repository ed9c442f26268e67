// Engine-level micro benchmarks: comparison harnesses (`--json out.json`
// records machine-readable {bench, config, rows_per_sec, wall_ms} rows — see
// BENCH_engine.json) for
//   * repeated PredicateMechanism::Answer — the PlanCache cold (compile+run),
//     cold over live shared columns, first hit (cells built) and warm
//     (bitmaps only) paths,
//   * a 16-query shared-predicate SSB workload — one AnswerBatch call vs
//     sequential warm Answer calls,
//   * ingest plan maintenance — ScanPlan::Compile plus the cell build on a
//     grown fact table vs a sequence of small ingests, each followed by
//     ScanPlan::ExtendFrom of the same plan with cells over just the tail.
// These are not paper experiments; they track the substrate's performance
// so regressions in the hot paths are visible. Thread-scaling configs are
// annotated with the host core count when the host cannot actually scale
// to them (e.g. a 1-core container).
//
// Environment knobs:
//   DPSTARJ_MICRO_SF       SSB scale factor of the comparison harness (0.05)
//   DPSTARJ_MICRO_MIN_SEC  min measured wall-clock per configuration (0.3)

#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "bench_common.h"
#include "bench_util/table_printer.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/predicate_mechanism.h"
#include "obs/trace.h"
#include "exec/scan_plan.h"
#include "exec/star_join_executor.h"
#include "query/binder.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

namespace {

using namespace dpstarj;

double SharedMinSec() {
  return bench_util::EnvDouble("DPSTARJ_MICRO_MIN_SEC", 0.3);
}

const storage::Catalog& ComparisonCatalog() {
  static storage::Catalog* catalog = [] {
    ssb::SsbOptions options;
    options.scale_factor = bench_util::EnvDouble("DPSTARJ_MICRO_SF", 0.05);
    auto c = ssb::GenerateSsb(options);
    DPSTARJ_CHECK(c.ok(), "ssb generation");
    return new storage::Catalog(std::move(*c));
  }();
  return *catalog;
}

// ---------------------------------------------------------------------------
// Repeated-answer comparison: the Predicate Mechanism re-executes the same
// bound query with perturbed predicates every noisy run. "plan cold
// (compile+run)" pays a whole ScanPlan::Compile every run, join, weight and
// ordinal columns, ordinal tables and group ordinals included (what a
// one-shot Execute costs); "plan cold (columns shared)" compiles while
// another plan holds those columns and tables, as a compile for a new
// signature against a populated plan cache does — but the held plan has
// cells, and a plan with cells holds no ordinal columns, so every timed
// compile builds those; "plan first hit (cells built)" is a compile,
// ordinal columns included, followed by the plan's first cache hit, which
// builds its cells (and drops the columns) before it answers; "plan warm"
// is the steady state — predicate bitmaps only, and a sweep over the cells
// when the plan has them.
// ---------------------------------------------------------------------------

void RunPlanCacheComparison(bench::JsonBenchWriter* json) {
  const double sf = bench_util::EnvDouble("DPSTARJ_MICRO_SF", 0.05);
  const double min_sec = SharedMinSec();
  const storage::Catalog& catalog = ComparisonCatalog();
  query::Binder binder(&catalog);

  // QgScanP: the full-scan grouped drill-down (SUM(revenue) by year × brand)
  // made PM-compatible with a full-domain year predicate — every fact row
  // still reaches the grouping path. Qg2/Qc3: the paper's filtered queries.
  std::vector<std::pair<std::string, query::StarJoinQuery>> queries;
  {
    query::StarJoinQuery scan;
    scan.name = "QgScanP";
    scan.fact_table = "Lineorder";
    scan.joined_tables = {"Date", "Part"};
    scan.aggregate = query::AggregateKind::kSum;
    scan.measure_terms = {{"revenue", 1.0}};
    scan.group_by = {{"Date", "year"}, {"Part", "brand"}};
    scan.predicates.push_back(query::Predicate::Range(
        "Date", "year", storage::Value(int64_t{ssb::kYearLo}),
        storage::Value(int64_t{ssb::kYearHi})));
    queries.emplace_back("QgScanP", std::move(scan));
  }
  for (const char* qname : {"Qg2", "Qc3"}) {
    auto q = ssb::GetQuery(qname);
    DPSTARJ_CHECK(q.ok(), "query");
    queries.emplace_back(qname, std::move(*q));
  }

  const double epsilon = 0.5;
  for (const auto& [qname_str, query] : queries) {
    const char* qname = qname_str.c_str();
    auto bound = binder.Bind(query);
    DPSTARJ_CHECK(bound.ok(), "bind");
    const double fact_rows = static_cast<double>(bound->fact->num_rows());

    std::printf("== repeated PM answer: %s (sf=%.3g, %.0f fact rows) ==\n",
                qname, sf, fact_rows);
    bench_util::TablePrinter table(
        {"path", "iters", "ms/answer", "rows/sec", "speedup"});

    Rng rng(11);
    core::PredicateMechanism pm;

    struct PathConfig {
      std::string name;
      std::function<void()> run;
    };
    std::vector<PathConfig> paths;
    paths.push_back({"plan cold (compile+run)", [&]() {
                       pm.plan_cache()->Clear();
                       auto r = pm.Answer(*bound, epsilon, &rng);
                       DPSTARJ_CHECK(r.ok(), "answer");
                     }});
    // A plan held across Clear() (taken at the first run, outside the
    // timing), so every later compile finds its join and weight columns,
    // ordinal tables and group ordinals live. It is the previous path's
    // plan at its first hit, so it has cells and no ordinal columns: each
    // timed compile builds its own.
    std::shared_ptr<const exec::ScanPlan> held;
    paths.push_back({"plan cold (columns shared)", [&]() {
                       if (held == nullptr) {
                         auto plan = pm.plan_cache()->GetOrCompile(*bound);
                         DPSTARJ_CHECK(plan.ok(), "plan");
                         held = *plan;
                       }
                       pm.plan_cache()->Clear();
                       auto r = pm.Answer(*bound, epsilon, &rng);
                       DPSTARJ_CHECK(r.ok(), "answer");
                     }});
    paths.push_back({"plan first hit (cells built)", [&]() {
                       pm.plan_cache()->Clear();
                       auto compiled = pm.plan_cache()->GetOrCompile(*bound);
                       DPSTARJ_CHECK(compiled.ok(), "compile");
                       auto r = pm.Answer(*bound, epsilon, &rng);
                       DPSTARJ_CHECK(r.ok(), "answer");
                     }});
    paths.push_back({"plan warm (bitmaps only)", [&]() {
                       auto r = pm.Answer(*bound, epsilon, &rng);
                       DPSTARJ_CHECK(r.ok(), "answer");
                     }});
    // Same steady-state path with a per-answer stage trace attached — the
    // telemetry-overhead acceptance measurement (must stay within a few
    // percent of the untraced warm path).
    paths.push_back({"plan warm (traced)", [&]() {
                       obs::Trace trace;
                       auto r = pm.Answer(*bound, epsilon, &rng, &trace);
                       DPSTARJ_CHECK(r.ok(), "answer");
                       DPSTARJ_CHECK(trace.touched(obs::Stage::kScan) ||
                                         trace.touched(obs::Stage::kNoiseDraw),
                                     "traced answer recorded no stages");
                     }});

    double cold_rows_per_sec = 0.0;
    for (const PathConfig& path : paths) {
      path.run();  // warm-up (compiles the plan for the warm path)
      Timer timer;
      std::optional<bench::CounterSpan> span;
      if (json != nullptr) span.emplace(*json);
      int iters = 0;
      do {
        path.run();
        ++iters;
      } while (timer.ElapsedSeconds() < min_sec || iters < 3);
      const double wall_ms = timer.ElapsedMillis() / iters;
      const double rows_per_sec = fact_rows / (wall_ms / 1e3);
      if (cold_rows_per_sec == 0.0) cold_rows_per_sec = rows_per_sec;
      table.AddRow({path.name, Format("%d", iters), Format("%.3f", wall_ms),
                    Format("%.3g", rows_per_sec),
                    Format("%.2fx", rows_per_sec / cold_rows_per_sec)});
      if (json != nullptr) {
        const double rows = fact_rows * iters;
        json->Add(std::string("micro_engine/pm_repeat/") + qname, path.name,
                  rows_per_sec, wall_ms, span->CyclesPerRow(rows),
                  span->InstructionsPerRow(rows));
      }
    }
    table.Print();
    std::printf("\n");
  }
}

// ---------------------------------------------------------------------------
// Workload comparison: a 16-query shared-predicate SSB workload — the
// paper's four scalar counting queries Qc1–Qc4, four instances each at
// different ε, the shape of a dashboard refresh — answered two ways: one
// warm Answer call per query vs one AnswerBatch call. AnswerBatch answers
// each entry through Answer's own step (one sweep per query, over the plan's
// cells once they are built), so the row guards against a batch path slower
// than sequential answers. Identical noise either way.
// ---------------------------------------------------------------------------

void RunWorkloadComparison(bench::JsonBenchWriter* json) {
  const double sf = bench_util::EnvDouble("DPSTARJ_MICRO_SF", 0.05);
  const double min_sec = SharedMinSec();
  const storage::Catalog& catalog = ComparisonCatalog();
  query::Binder binder(&catalog);

  std::vector<query::BoundQuery> base;
  for (const char* qname : {"Qc1", "Qc2", "Qc3", "Qc4"}) {
    auto q = ssb::GetQuery(qname);
    DPSTARJ_CHECK(q.ok(), "query");
    auto bound = binder.Bind(*q);
    DPSTARJ_CHECK(bound.ok(), "bind");
    base.push_back(std::move(*bound));
  }
  std::vector<core::BatchQueryRef> batch;
  for (int rep = 0; rep < 4; ++rep) {
    for (size_t i = 0; i < base.size(); ++i) {
      batch.push_back({&base[i], 0.25 + 0.05 * rep});
    }
  }
  const double fact_rows = static_cast<double>(base[0].fact->num_rows());
  const double batch_queries = static_cast<double>(batch.size());

  std::printf("== workload: %zu-query shared-predicate SSB batch "
              "(sf=%.3g, %.0f fact rows) ==\n",
              batch.size(), sf, fact_rows);
  bench_util::TablePrinter table(
      {"path", "iters", "ms/workload", "query-rows/sec", "speedup"});

  Rng rng(17);
  core::PredicateMechanism pm;

  struct PathConfig {
    std::string name;
    std::function<void()> run;
  };
  std::vector<PathConfig> paths;
  paths.push_back({"sequential warm", [&]() {
                     for (const core::BatchQueryRef& ref : batch) {
                       auto r = pm.Answer(*ref.query, ref.epsilon, &rng);
                       DPSTARJ_CHECK(r.ok(), "answer");
                     }
                   }});
  exec::WorkloadExecStats last_stats;
  paths.push_back({"AnswerBatch", [&]() {
                     exec::WorkloadExecStats stats;
                     auto results = pm.AnswerBatch(batch, &rng, nullptr, &stats);
                     DPSTARJ_CHECK(results.size() == batch.size(), "batch size");
                     for (const auto& r : results) {
                       DPSTARJ_CHECK(r.ok(), "batch answer");
                     }
                     last_stats = stats;
                   }});

  double sequential_rows_per_sec = 0.0;
  for (const PathConfig& path : paths) {
    path.run();  // warm-up: compiles and caches every per-query plan
    Timer timer;
    std::optional<bench::CounterSpan> span;
    if (json != nullptr) span.emplace(*json);
    int iters = 0;
    do {
      path.run();
      ++iters;
    } while (timer.ElapsedSeconds() < min_sec || iters < 3);
    const double wall_ms = timer.ElapsedMillis() / iters;
    // Work answered per second: every query logically covers the fact table.
    const double rows_per_sec = fact_rows * batch_queries / (wall_ms / 1e3);
    if (sequential_rows_per_sec == 0.0) sequential_rows_per_sec = rows_per_sec;
    table.AddRow({path.name, Format("%d", iters), Format("%.2f", wall_ms),
                  Format("%.3g", rows_per_sec),
                  Format("%.2fx", rows_per_sec / sequential_rows_per_sec)});
    if (json != nullptr) {
      // Both paths run on the same host within one process; the batch row
      // carries its speedup over the sequential row measured just before it.
      std::string config = path.name;
      if (rows_per_sec != sequential_rows_per_sec) {
        config += Format(" speedup=%.2fx vs sequential warm (same host)",
                         rows_per_sec / sequential_rows_per_sec);
      }
      const double rows = fact_rows * batch_queries * iters;
      json->Add("micro_engine/workload/ssb_qc16", config, rows_per_sec,
                wall_ms, span->CyclesPerRow(rows),
                span->InstructionsPerRow(rows));
    }
  }
  table.Print();
  std::printf("AnswerBatch receipts: %d queries, %d fact sweeps, %d cell "
              "sweeps, %d bitmap builds\n\n",
              static_cast<int>(last_stats.queries),
              static_cast<int>(last_stats.scans),
              static_cast<int>(last_stats.cell_sweeps),
              static_cast<int>(last_stats.predicate_nodes));
}

// ---------------------------------------------------------------------------
// Ingest comparison: after an append batch lands on a live fact table, a
// cached grouped ScanPlan with cells is stale. The PlanCache extends it over
// the tail (ScanPlan::ExtendFrom, which appends the tail to the plan's
// arrays and adds its rows to the cells) instead of recompiling the full
// table and rebuilding the cells (ScanPlan::Compile + ScanPlan::WithCells).
// "recompile" times the latter on the grown table. "extend" times the path
// the repository benchmark's batch_ingest takes: a sequence of 2,000-row
// ingests, each followed by an extension of the previous extension, checked
// through the column store's copy counter to append in place. The final
// extension must equal a fresh compile bit for bit. Runs last: it appends to
// the shared comparison catalog's Lineorder.
// ---------------------------------------------------------------------------

void RunIngestComparison(bench::JsonBenchWriter* json) {
  const double sf = bench_util::EnvDouble("DPSTARJ_MICRO_SF", 0.05);
  const double min_sec = SharedMinSec();
  const storage::Catalog& catalog = ComparisonCatalog();
  query::Binder binder(&catalog);

  // The full-scan grouped SSB drill-down: SUM(revenue) by year × brand —
  // the scaffold shape ingest must maintain.
  query::StarJoinQuery scan;
  scan.name = "QgScan";
  scan.fact_table = "Lineorder";
  scan.joined_tables = {"Date", "Part"};
  scan.aggregate = query::AggregateKind::kSum;
  scan.measure_terms = {{"revenue", 1.0}};
  scan.group_by = {{"Date", "year"}, {"Part", "brand"}};
  auto bound = binder.Bind(scan);
  DPSTARJ_CHECK(bound.ok(), "bind");

  auto fact = catalog.GetTable("Lineorder");
  DPSTARJ_CHECK(fact.ok(), "fact table");
  const int64_t base_rows = (*fact)->num_rows();
  // Compile plus cells, the way PlanCache builds them at a first hit.
  auto with_cells = [&](exec::PlanColumnStore& columns) {
    auto plan = exec::ScanPlan::Compile(*bound, columns);
    DPSTARJ_CHECK(plan.ok(), "compile");
    auto cells = exec::ScanPlan::WithCells(
        *plan, *bound, exec::ScanPlan::CellLimit(plan->fact_rows()));
    DPSTARJ_CHECK(cells.ok(), "cells");
    return std::move(*cells);
  };
  // One ingest: 2,000 recycled rows (valid FKs by construction — they are
  // existing rows), the batch size of the repository benchmark's ingests.
  constexpr int64_t kTail = 2000;
  int64_t next_source = 0;
  auto ingest = [&]() {
    for (int64_t i = 0; i < kTail; ++i) {
      Status appended =
          (*fact)->AppendRow((*fact)->GetRow(next_source++ % base_rows));
      DPSTARJ_CHECK(appended.ok(), "append");
    }
  };
  exec::PlanColumnStore columns;
  exec::ScanPlan plan = with_cells(columns);
  auto extend = [&]() {
    auto extended = exec::ScanPlan::ExtendFrom(plan, *bound, columns);
    DPSTARJ_CHECK(extended.ok() && extended->cells->num_cells() > 0, "extend");
    plan = std::move(*extended);
  };
  // Warm-up: compiled arrays hold no slack, so the first extension copies
  // each into a buffer twice the grown size, which later ones fill.
  ingest();
  extend();
  const double recompile_rows = static_cast<double>((*fact)->num_rows());

  std::printf("== ingest plan maintenance: QgScan "
              "(sf=%.3g, %.0f fact rows, +%lld per ingest) ==\n",
              sf, recompile_rows, static_cast<long long>(kTail));
  bench_util::TablePrinter table(
      {"path", "iters", "ms/batch", "rows/sec", "speedup"});
  auto report = [&](const char* name, int iters, double wall_ms,
                    double rows_per_sec, double floor_rows_per_sec,
                    const std::optional<bench::CounterSpan>& span,
                    double rows) {
    table.AddRow({name, Format("%d", iters), Format("%.3f", wall_ms),
                  Format("%.3g", rows_per_sec),
                  Format("%.2fx", rows_per_sec / floor_rows_per_sec)});
    if (json != nullptr) {
      json->Add("micro_engine/ingest/QgScan", name, rows_per_sec, wall_ms,
                span->CyclesPerRow(rows), span->InstructionsPerRow(rows));
    }
  };

  // Recompile: the full table, plus the cell build, in a store of its own
  // every run, so every fact row is resolved.
  double recompile_rows_per_sec = 0.0;
  {
    Timer timer;
    std::optional<bench::CounterSpan> span;
    if (json != nullptr) span.emplace(*json);
    int iters = 0;
    do {
      exec::PlanColumnStore fresh_columns;
      DPSTARJ_CHECK(with_cells(fresh_columns).cells->num_cells() > 0,
                    "no cells");
      ++iters;
    } while (timer.ElapsedSeconds() < min_sec || iters < 3);
    const double wall_ms = timer.ElapsedMillis() / iters;
    recompile_rows_per_sec = recompile_rows / (wall_ms / 1e3);
    report("recompile (full table)", iters, wall_ms, recompile_rows_per_sec,
           recompile_rows_per_sec, span, recompile_rows * iters);
  }

  // Extend: ingests while the buffers have room, each extension timed. Both
  // paths deliver a plan covering the whole grown table, so work delivered
  // per second is total fact rows either way.
  {
    const uint64_t copies = columns.GetStats().copies;
    std::optional<bench::CounterSpan> span;
    if (json != nullptr) span.emplace(*json);
    Timer elapsed;
    double extend_ms = 0.0;
    double delivered_rows = 0.0;
    int iters = 0;
    while ((elapsed.ElapsedSeconds() < min_sec || iters < 3) &&
           static_cast<size_t>((*fact)->num_rows() + kTail) <=
               plan.fact_dim_row[0]->rows.capacity()) {
      ingest();
      Timer timer;
      extend();
      extend_ms += timer.ElapsedMillis();
      delivered_rows += static_cast<double>(plan.fact_rows());
      ++iters;
    }
    DPSTARJ_CHECK(iters >= 3 && columns.GetStats().copies == copies,
                  "timed extensions must append in place");
    report("extend (tail only)", iters, extend_ms / iters,
           delivered_rows / (extend_ms / 1e3), recompile_rows_per_sec, span,
           delivered_rows);
  }

  // Self-check: the extended plan reproduces a fresh compile bit for bit.
  exec::PlanColumnStore fresh_columns;
  const exec::ScanPlan fresh = with_cells(fresh_columns);
  bool same_join_columns = true;
  for (size_t i = 0; i < fresh.fact_dim_row.size(); ++i) {
    same_join_columns = same_join_columns && plan.fact_dim_row[i]->rows ==
                                                 fresh.fact_dim_row[i]->rows;
  }
  const exec::CellLayout& ext_cells = *plan.cells;
  const exec::CellLayout& fresh_cells = *fresh.cells;
  DPSTARJ_CHECK(same_join_columns &&
                    plan.weights->values == fresh.weights->values &&
                    ext_cells.cell_class == fresh_cells.cell_class &&
                    ext_cells.counts == fresh_cells.counts &&
                    ext_cells.weights == fresh_cells.weights &&
                    ext_cells.codes == fresh_cells.codes &&
                    ext_cells.labels == fresh_cells.labels &&
                    ext_cells.slots == fresh_cells.slots,
                "extended plan diverges from fresh compile");
  table.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::JsonBenchWriter::ConsumeJsonFlag(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
    return 1;
  }
  bench::JsonBenchWriter json(json_path);
  RunPlanCacheComparison(&json);
  RunWorkloadComparison(&json);
  RunIngestComparison(&json);  // last: appends to the comparison catalog
  json.Flush();
  return 0;
}
